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

// FlipOccupancyBit flips the occupancy bit of color list (bc, lc) and
// leaves the list as it is: a clear bit over parked frames strands
// them, a set bit over an empty list sends pops to nothing. The
// auditor must name either.
func (k *Kernel) FlipOccupancyBit(bc, lc int) {
	if k.colors.Occupied(bc, lc) {
		k.colors.Clear(bc, lc)
	} else {
		k.colors.Set(bc, lc)
	}
}

// SkewColorClaims moves the claim count of bank color c (bank true)
// or LLC color c by d and leaves every task's color set as it is: the
// ladder would then lend a claimed color or withhold a free one.
func (k *Kernel) SkewColorClaims(bank bool, c, d int) {
	if bank {
		k.bankClaims[c].Add(int32(d))
	} else {
		k.llcClaims[c].Add(int32(d))
	}
}
