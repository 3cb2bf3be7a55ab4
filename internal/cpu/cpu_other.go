//go:build !amd64 || purego

package cpu

func detect() Features { return Features{} }
