// Package fix is the dead-surface scan's fixture: each name below pins one
// rule of TestDeadSurfaceRules.
package fix

// Closer is a module interface that user names.
type Closer interface{ Close() error }

// Used is called by user.
func Used() {}

// Unused is called by nothing.
func Unused() {}

// Recurse calls only itself.
func Recurse(n int) int {
	if n == 0 {
		return 0
	}
	return Recurse(n - 1)
}

// Thing is made by user.
type Thing struct{}

// Live is called by user.
func (Thing) Live() {}

// TestOnly is called only by fix_test.go.
func (Thing) TestOnly() {}

// String satisfies fmt.Stringer, an interface of a std package user imports.
func (Thing) String() string { return "thing" }

// Close satisfies Closer.
func (*Thing) Close() error { return nil }

// Orphan is named only by its own method's receiver.
type Orphan struct{}

// M has no caller.
func (Orphan) M() {}

// Err is returned by user.
type Err struct{ err error }

// Error satisfies the universe's error.
func (e *Err) Error() string { return "fix: " + e.err.Error() }

// Unwrap is found by errors.Is and errors.As through an unnamed interface.
func (e *Err) Unwrap() error { return e.err }

// A code table: CodeA is used, CodeB only shares its block.
const (
	CodeA = iota
	CodeB
)

// Lone is a constant with no block and no user.
const Lone = 1

var scratch int
