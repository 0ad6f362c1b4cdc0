package sketch

import "fmt"

// Mergeability: register readouts of the SAME task layout use the same hash
// functions (the hashing.Unit polynomials are deterministic per index), so
// their states combine element-wise — the property network-wide
// measurement relies on when a central SDM controller aggregates register
// readouts from many switches (§3.4). Each merge below writes into dst.

// MergeMaxRegisters takes the element-wise maximum of two raw register
// readouts (MAX-operation tasks: per-key maxima, HLL ranks). Both slices
// must have the same length; the result is written into dst.
func MergeMaxRegisters(dst, src []uint32) error {
	if len(dst) != len(src) {
		return fmt.Errorf("sketch: register lengths differ (%d vs %d)", len(dst), len(src))
	}
	mergeMaxKernel(dst, src)
	return nil
}

// MergeAddRegisters adds two raw register readouts element-wise with
// saturation (Cond-ADD/counter tasks whose streams are disjoint). The
// result is written into dst.
func MergeAddRegisters(dst, src []uint32) error {
	if len(dst) != len(src) {
		return fmt.Errorf("sketch: register lengths differ (%d vs %d)", len(dst), len(src))
	}
	mergeAddKernel(dst, src)
	return nil
}

// MergeOrRegisters ORs two raw register readouts element-wise (bitmap
// tasks: Bloom filters, coupon tables). The result is written into dst.
func MergeOrRegisters(dst, src []uint32) error {
	if len(dst) != len(src) {
		return fmt.Errorf("sketch: register lengths differ (%d vs %d)", len(dst), len(src))
	}
	mergeOrKernel(dst, src)
	return nil
}

// MergeXorRegisters XORs two raw register readouts element-wise (odd
// sketches: the merged state describes the symmetric difference of the two
// inserted sets, i.e. the union when the per-switch streams are disjoint).
// The result is written into dst.
func MergeXorRegisters(dst, src []uint32) error {
	if len(dst) != len(src) {
		return fmt.Errorf("sketch: register lengths differ (%d vs %d)", len(dst), len(src))
	}
	mergeXorKernel(dst, src)
	return nil
}
