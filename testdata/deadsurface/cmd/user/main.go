// Command user is the fixture's only non-test user of package fix.
package main

import (
	"errors"
	"fmt"

	"example.com/fix/internal/fix"
)

func main() {
	fix.Used()
	var th fix.Thing
	th.Live()
	var c fix.Closer = &th
	fmt.Println(c.Close(), fix.CodeA, error(&fix.Err{}) != nil, errors.New("x"))
}
