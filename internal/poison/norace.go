//go:build !race

package poison

const enabled = false
