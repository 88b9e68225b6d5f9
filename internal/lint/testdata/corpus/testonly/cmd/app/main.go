package main

import "tomod/lib"

func main() {
	lib.Used()
	lib.Stale()
}
