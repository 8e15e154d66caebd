//go:build !race

package hpbdc

// raceBuild reports a -race build, which changes what escapes to the heap:
// byte budgets hold only without it.
const raceBuild = false
