//go:build !amd64

package mathx

// mulRowsSIMD reports that no SIMD kernel is available on this
// architecture; MulRowsT falls back to the scalar register tile.
func mulRowsSIMD(m *Matrix, dst []float64, xs [][]float64) bool {
	return false
}

// chain4SIMD reports that no SIMD kernel is available on this architecture;
// chain4 falls back to the scalar tile.
func chain4SIMD(dst []float64, scal, vp []float64, steps, c int) bool {
	return false
}

// gemvLanes reports a zero tile height: PackGEMV keeps no packed data and
// Apply always runs the scalar per-row Dot path.
func gemvLanes() int { return 0 }

// gemvSIMD reports that no packed-GEMV kernel is available.
func gemvSIMD(p *PackedGEMV, dst, x, bias []float64, mode int, tiles int) bool {
	return false
}

// SetSIMDEnabled is a no-op without SIMD kernels; it reports false (the
// previous — and only — state).
func SetSIMDEnabled(on bool) bool {
	return false
}

// SetAVX512Enabled is a no-op without SIMD kernels; it reports false (the
// previous — and only — state).
func SetAVX512Enabled(on bool) bool {
	return false
}

// SIMDTier names the only kernel tier on this architecture.
func SIMDTier() string { return "scalar" }
