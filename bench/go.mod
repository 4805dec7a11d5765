module github.com/spright-go/spright/bench

go 1.24

require github.com/spright-go/spright v0.0.0

replace github.com/spright-go/spright => ../
