package main

import "unreachfix/lib"

func init() { lib.Setup() }

func main() {
	lib.Apply(lib.Visitor)
	var s lib.Shape = lib.Square{}
	_ = s
}
