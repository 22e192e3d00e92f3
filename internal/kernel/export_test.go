package kernel

// TombstoneRegion retires the live region starting at va without
// unmapping its pages: the corruption a Munmap that marks a region
// dead but leaves its pages resident would cause, which the auditor
// must name.
func (p *Process) TombstoneRegion(va uint64) {
	i := p.findRegion(va)
	p.regions[i].owner = nil
	p.dead++
}

// SetRegionEnd moves the end of the live region starting at va,
// bypassing Mmap: the corruption that empties a region or makes it
// overlap its successor, which the auditor must name.
func (p *Process) SetRegionEnd(va, end uint64) {
	p.regions[p.findRegion(va)].end = end
}
