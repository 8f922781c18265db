//go:build race

package poison

const enabled = true
