//go:build race

package fuse

const raceBuild = true
