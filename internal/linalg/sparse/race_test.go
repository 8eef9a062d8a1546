//go:build race

package sparse

func init() { raceBuild = true }
