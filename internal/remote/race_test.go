//go:build race

package remote

const raceBuild = true
