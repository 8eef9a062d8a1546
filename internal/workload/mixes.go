package workload

import (
	"fmt"
	"strings"

	"multitherm/internal/uarch"
)

// Mix is one four-process workload (paper Table 4).
type Mix struct {
	Name       string
	Benchmarks [4]string
}

// Label returns the paper's figure label, e.g.
// "gzip-twolf-ammp-lucas (IIFF)".
func (m Mix) Label() string {
	var kinds []byte
	for _, b := range m.Benchmarks {
		if MustProfile(b).Category == uarch.SPECfp {
			kinds = append(kinds, 'F')
		} else {
			kinds = append(kinds, 'I')
		}
	}
	return fmt.Sprintf("%s (%s)", strings.Join(m.Benchmarks[:], "-"), kinds)
}

// Profiles resolves the mix's four benchmark profiles.
func (m Mix) Profiles() ([4]uarch.Profile, error) {
	var out [4]uarch.Profile
	for i, b := range m.Benchmarks {
		p, err := Profile(b)
		if err != nil {
			return out, err
		}
		out[i] = p
	}
	return out, nil
}

// Mixes is Table 4: the twelve four-process workloads, ordered from
// all-integer to all-floating-point.
var Mixes = []Mix{
	{"workload1", [4]string{"gcc", "gzip", "mcf", "vpr"}},
	{"workload2", [4]string{"crafty", "eon", "parser", "perlbmk"}},
	{"workload3", [4]string{"bzip2", "gzip", "twolf", "swim"}},
	{"workload4", [4]string{"crafty", "perlbmk", "vpr", "mgrid"}},
	{"workload5", [4]string{"gcc", "parser", "applu", "mesa"}},
	{"workload6", [4]string{"bzip2", "eon", "art", "facerec"}},
	{"workload7", [4]string{"gzip", "twolf", "ammp", "lucas"}},
	{"workload8", [4]string{"parser", "vpr", "fma3d", "sixtrack"}},
	{"workload9", [4]string{"gcc", "applu", "mgrid", "swim"}},
	{"workload10", [4]string{"mcf", "ammp", "art", "mesa"}},
	{"workload11", [4]string{"ammp", "facerec", "fma3d", "swim"}},
	{"workload12", [4]string{"art", "lucas", "mgrid", "sixtrack"}},
}

// MixByName returns the named workload mix. It is a strict whitelist
// lookup: the result is one of the static mix tables regardless of
// input.
func MixByName(name string) (Mix, error) {
	for _, m := range Mixes {
		if m.Name == name {
			return m, nil
		}
	}
	return Mix{}, fmt.Errorf("workload: unknown mix %q", name)
}
