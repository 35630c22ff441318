/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * Every stochastic decision in the simulator — router output
 * selection, traffic destinations, fault schedules — draws from a
 * seeded Xoshiro256** stream so that a given seed reproduces a
 * simulation bit-for-bit. The paper's routers consume external
 * "random input" bit streams (parameter ri in Table 1) so that
 * width-cascaded routers can share randomness; RandomSource models
 * exactly such a stream and can be shared by reference across a
 * cascade group.
 */

#ifndef METRO_COMMON_RANDOM_HH
#define METRO_COMMON_RANDOM_HH

#include <cstdint>

#include "common/logging.hh"
#include "common/types.hh"

namespace metro
{

/** SplitMix64's increment: 2^64 divided by the golden ratio. */
inline constexpr std::uint64_t kSplitMixGamma = 0x9e3779b97f4a7c15ULL;

/** SplitMix64's output finalizer (Steele, Lea & Flood): a
 *  bijective 64-bit mix. */
constexpr std::uint64_t
splitmixFinalize(std::uint64_t z)
{
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/** One SplitMix64 output from state `x`. */
constexpr std::uint64_t
splitmix64(std::uint64_t x)
{
    return splitmixFinalize(x + kSplitMixGamma);
}

/** The seed of sub-stream `salt` of `base` (per-entity and wiring
 *  seeds of the network builders). */
constexpr std::uint64_t
subSeed(std::uint64_t base, std::uint64_t salt)
{
    return splitmixFinalize(base ^ (salt * kSplitMixGamma));
}

/**
 * Xoshiro256** generator (Blackman & Vigna). Small, fast, and good
 * enough statistically for simulation workloads; chosen over
 * std::mt19937 for speed and a compact, explicitly-specified state
 * that makes cross-platform determinism trivial.
 */
class Xoshiro256
{
  public:
    /** Construct from a 64-bit seed via SplitMix64 expansion. */
    explicit Xoshiro256(std::uint64_t seed = 0x9e3779b97f4a7c15ULL)
    {
        reseed(seed);
    }

    /** Re-initialize the state from a 64-bit seed. */
    void
    reseed(std::uint64_t seed)
    {
        // SplitMix64 to fill the state; avoids the all-zero state.
        std::uint64_t x = seed;
        for (auto &s : state_) {
            s = splitmix64(x);
            x += kSplitMixGamma;
        }
    }

    /** Next 64 uniformly random bits. */
    std::uint64_t
    next()
    {
        const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
        const std::uint64_t t = state_[1] << 17;
        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = rotl(state_[3], 45);
        return result;
    }

    /** Uniform integer in [0, bound). @pre bound > 0. */
    std::uint64_t
    below(std::uint64_t bound)
    {
        METRO_ASSERT(bound > 0, "below() requires bound > 0");
        // Rejection sampling to avoid modulo bias.
        const std::uint64_t threshold = (0 - bound) % bound;
        for (;;) {
            const std::uint64_t r = next();
            if (r >= threshold)
                return r % bound;
        }
    }

    /** Uniform integer in [lo, hi] inclusive. @pre lo <= hi. */
    std::uint64_t
    range(std::uint64_t lo, std::uint64_t hi)
    {
        METRO_ASSERT(lo <= hi, "range() requires lo <= hi");
        return lo + below(hi - lo + 1);
    }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Bernoulli trial with probability p of true. */
    bool
    chance(double p)
    {
        return uniform() < p;
    }

    /** A single random bit. */
    bool bit() { return (next() & 1) != 0; }

    /**
     * Raw generator state, for checkpoint/restore: the four state
     * words fully determine the stream, so a save/restore pair
     * resumes the draw sequence exactly where it left off. @{
     */
    void
    stateWords(std::uint64_t out[4]) const
    {
        for (int i = 0; i < 4; ++i)
            out[i] = state_[i];
    }

    void
    setStateWords(const std::uint64_t in[4])
    {
        for (int i = 0; i < 4; ++i)
            state_[i] = in[i];
    }
    /** @} */

  private:
    static std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::uint64_t state_[4];
};

/**
 * A shared random bit stream, modelling the external random inputs
 * each METRO router receives (Table 1, parameter ri). Cascaded
 * routers hold a pointer to the same RandomSource so their
 * allocation decisions coincide (Section 5.1, "shared randomness").
 *
 * The word for a cycle is a pure function of (seed, cycle): all
 * consumers of the same source observe identical bits in the same
 * cycle regardless of query order, which is what makes cascaded
 * routers allocate identically.
 */
class RandomSource
{
  public:
    explicit RandomSource(std::uint64_t seed) : seed_(seed) {}

    /** The 64-bit random word associated with a simulation cycle. */
    std::uint64_t
    wordForCycle(Cycle cycle) const
    {
        // SplitMix64-style finalizer over (seed, cycle).
        std::uint64_t z =
            seed_ ^ (cycle + 0x9e3779b97f4a7c15ULL +
                     (seed_ << 6) + (seed_ >> 2));
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }

    /** The seed this stream was constructed with. */
    std::uint64_t seed() const { return seed_; }

  private:
    std::uint64_t seed_;
};

} // namespace metro

#endif // METRO_COMMON_RANDOM_HH
