package main

import (
	"errors"
	"fmt"

	"fixture/internal/lib"
	"fixture/internal/use"
)

func main() {
	var err error = lib.Fault{}
	if t, ok := err.(interface{ Transient() bool }); ok {
		fmt.Println(t.Transient())
	}
	fmt.Println(lib.Used(), use.Run(&lib.Server{}), errors.Is(&lib.Wrapped{}, lib.ErrBase))
}
