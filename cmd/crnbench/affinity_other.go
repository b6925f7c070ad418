//go:build !linux

package main

import "errors"

func pinProcess() (int, error) { return 0, errors.New("CPU pinning needs Linux") }
