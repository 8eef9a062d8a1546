package sparse

// MatVecAVX512 reports whether the propagator's mat-vec runs the
// AVX-512 kernel.
func (p *Propagator) MatVecAVX512() bool { return p.a.avx512 }

// MatVecLongRow returns the number of entries in the row the
// propagator's mat-vec runs beside its row groups, or -1 if there is
// none.
func (p *Propagator) MatVecLongRow() int {
	g := p.a
	if g.long < 0 {
		return -1
	}
	return int(g.a.rowPtr[g.long+1] - g.a.rowPtr[g.long])
}
