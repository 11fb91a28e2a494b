package montecarlo

// splitMix64 is Vigna's SplitMix64 generator: one 64-bit add and a 3-round
// finalizer per draw, fully inlinable, passing BigCrush. The fused Monte
// Carlo sampler draws per trial chunk from an independent splitMix64 stream
// derived from (Seed, chunk), so results are reproducible and independent
// of the worker count. Streams are offsets of one global sequence; with the
// ~2^64 period and the mixed per-chunk offsets, overlap between chunks is
// negligible at any realistic trial count.
type splitMix64 struct{ s uint64 }

// gamma is the SplitMix64 state increment: draw i of a stream is
// mix64(s + i·gamma).
const gamma uint64 = 0x9e3779b97f4a7c15

// mix64 is the SplitMix64 output finalizer (a strong 64-bit mixer).
func mix64(z uint64) uint64 {
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

// newChunkRNG returns the deterministic stream of one trial chunk.
func newChunkRNG(seed uint64, chunk int64) splitMix64 {
	return splitMix64{s: mix64(seed ^ mix64(uint64(chunk)+0x9e3779b97f4a7c15))}
}

// Uint64 returns the next 64 random bits.
func (r *splitMix64) Uint64() uint64 {
	r.s += gamma
	return mix64(r.s)
}

// Float64 returns a uniform sample in [0, 1).
func (r *splitMix64) Float64() float64 {
	return float64(r.Uint64()>>11) * 0x1p-53
}

// unitOpen returns a uniform sample in (0, 1], safe as a log argument.
func (r *splitMix64) unitOpen() float64 {
	return float64((r.Uint64()>>11)+1) * 0x1p-53
}
