/**
 * @file
 * Little-endian binary state archives for checkpoints.
 *
 * StateWriter and StateReader share one field vocabulary, so a
 * single template function describes a component's state for both
 * directions:
 *
 *     template <class Ar, class T>
 *     void state(Ar &ar, T &x)
 *     {
 *         ar.u32(x.count);
 *         ar.enumeration(x.mode, Mode::Last, "invalid mode");
 *         ar.seq(x.ids, 8, [](auto &ar, auto &id) { ar.u64(id); });
 *     }
 *
 * Saving passes const state and the writer reads it; restoring
 * passes the live instance and the reader overwrites it. Every field
 * method takes a reference to the field and names its wire width
 * (u8/u16/u32/u64/f64; a bool travels as a u8).
 *
 * Validation is reader-only and compiles out of the writer: sizes
 * that must match the freshly built instance (expectSize, bools,
 * presence), counts bounded by the bytes left (seq, entries, str,
 * blob), and value checks (field predicates, enumeration,
 * check).
 *
 * The reader is built for hostile bytes (the checkpoint fuzz target
 * feeds arbitrary ones). Every count is checked against the
 * remaining bytes before anything is allocated. A checked value is
 * read into a temporary and assigned only once it passes. A
 * sequence or map element is committed only once it is fully read
 * and valid. After the first failure the reader is poisoned: every
 * later read leaves its field untouched, ok() stays false and
 * error() names the root cause, so state functions run straight
 * through and the caller checks once at the end.
 */

#ifndef METRO_SERVE_STATEIO_HH
#define METRO_SERVE_STATEIO_HH

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

namespace metro
{

/** Append-only little-endian field writer. */
class StateWriter
{
  public:
    static constexpr bool kLoading = false;

    bool ok() const { return true; }

    /** A field of the named wire width. Checks (a predicate and an
     *  error) are the reader's; saved state needs none. @{ */
    template <class V, class... Check>
    void u8(const V &v, const Check &...) { put<std::uint8_t>(v); }
    template <class V, class... Check>
    void u16(const V &v, const Check &...) { put<std::uint16_t>(v); }
    template <class V, class... Check>
    void u32(const V &v, const Check &...) { put<std::uint32_t>(v); }
    template <class V, class... Check>
    void u64(const V &v, const Check &...) { put<std::uint64_t>(v); }
    /** @} */

    /** IEEE-754 bit pattern (round-trips exactly). */
    void
    f64(const double &v)
    {
        put<std::uint64_t>(std::bit_cast<std::uint64_t>(v));
    }

    template <class E>
    void enumeration(const E &e, E, const char *) { u8(e); }

    /** A byte holding a boolean. */
    void flag(const std::uint8_t &v) { u8(v); }

    /** A fixed-geometry flag vector, one byte per flag. */
    void
    bools(const std::vector<bool> &v)
    {
        u64(v.size());
        for (bool b : v)
            u8(b);
    }

    /** Length-prefixed byte string. */
    void
    str(const std::string &s)
    {
        u64(s.size());
        buf_.insert(buf_.end(), s.begin(), s.end());
    }

    /** Length-prefixed raw bytes. */
    void
    blob(const std::vector<std::uint8_t> &b)
    {
        u64(b.size());
        buf_.insert(buf_.end(), b.begin(), b.end());
    }

    void expectSize(std::size_t n, std::size_t, const char *) { u64(n); }

    /** An optional participant's presence byte. */
    bool
    presence(bool present, const char *)
    {
        u8(present);
        return present;
    }

    template <class Ok, class Why> void check(Ok, const Why &) {}

    /** Count-prefixed container, one `fn(ar, element)` each. */
    template <class C, class Fn, class... Check>
    void
    seq(const C &c, std::size_t, Fn fn, const Check &...)
    {
        u64(c.size());
        for (const auto &e : c)
            fn(*this, e);
    }

    /** Count-prefixed map, one `fn(ar, key, value)` each, in key
     *  order (hashed maps are sorted first: stable bytes). */
    template <class M, class Fn>
    void
    entries(const M &m, std::size_t, Fn fn)
    {
        u64(m.size());
        if constexpr (requires { typename M::hasher; }) {
            std::vector<const typename M::value_type *> sorted;
            sorted.reserve(m.size());
            for (const auto &e : m)
                sorted.push_back(&e);
            std::sort(sorted.begin(), sorted.end(),
                      [](const auto *a, const auto *b) {
                          return a->first < b->first;
                      });
            for (const auto *e : sorted)
                fn(*this, e->first, e->second);
        } else {
            for (const auto &[k, v] : m)
                fn(*this, k, v);
        }
    }

    /** A composite value whose checks span several fields. */
    template <class T, class Fn>
    void staged(const T &v, Fn fn) { fn(*this, v); }

    const std::vector<std::uint8_t> &buffer() const { return buf_; }
    std::vector<std::uint8_t> take() { return std::move(buf_); }

  private:
    template <class W, class V>
    void
    put(const V &v)
    {
        const auto w = static_cast<W>(v);
        for (unsigned i = 0; i < sizeof(W); ++i)
            buf_.push_back(static_cast<std::uint8_t>(w >> (8 * i)));
    }

    std::vector<std::uint8_t> buf_;
};

/** Bounds-checked little-endian field reader over borrowed bytes. */
class StateReader
{
    /** The predicate of an unchecked read. */
    struct Any
    {
        bool operator()(std::uint64_t) const { return true; }
    };

  public:
    static constexpr bool kLoading = true;

    StateReader(const std::uint8_t *data, std::size_t size)
        : data_(data), size_(size)
    {
    }

    bool ok() const { return ok_; }
    std::size_t remaining() const { return size_ - pos_; }
    const std::string &error() const { return error_; }

    /** Poison the reader. Only the first error is kept (it names
     *  the root cause). */
    void
    fail(const std::string &why)
    {
        if (ok_) {
            ok_ = false;
            error_ = why;
        }
    }

    /** A field of the named wire width. With a predicate, the wire
     *  value must pass it or the read fails with `why` and the field
     *  keeps its value. @{ */
    template <class V, class Ok = Any>
    void u8(V &v, Ok valid = {}, const char *why = "")
    {
        field<std::uint8_t>(v, valid, why);
    }
    template <class V, class Ok = Any>
    void u16(V &v, Ok valid = {}, const char *why = "")
    {
        field<std::uint16_t>(v, valid, why);
    }
    template <class V, class Ok = Any>
    void u32(V &v, Ok valid = {}, const char *why = "")
    {
        field<std::uint32_t>(v, valid, why);
    }
    template <class V, class Ok = Any>
    void u64(V &v, Ok valid = {}, const char *why = "")
    {
        field<std::uint64_t>(v, valid, why);
    }
    /** @} */

    void
    f64(double &v)
    {
        const auto w = read<std::uint64_t>();
        if (ok_)
            v = std::bit_cast<double>(w);
    }

    /** An enum stored as a u8, no greater than `last`. */
    template <class E>
    void
    enumeration(E &e, E last, const char *why)
    {
        field<std::uint8_t>(
            e,
            [last](std::uint8_t w) {
                return w <= static_cast<std::uint8_t>(last);
            },
            why);
    }

    /** A byte holding a boolean: any nonzero value reads as 1. */
    void
    flag(std::uint8_t &v)
    {
        const auto w = read<std::uint8_t>();
        if (ok_)
            v = w != 0 ? 1 : 0;
    }

    /** A flag vector whose length the fresh instance fixes. */
    void
    bools(std::vector<bool> &v)
    {
        expectSize(v.size(), 1, "flag vector size mismatch");
        for (std::size_t i = 0; i < v.size() && ok_; ++i) {
            const auto w = read<std::uint8_t>();
            if (ok_)
                v[i] = w != 0;
        }
    }

    void
    str(std::string &s)
    {
        const std::uint64_t n = count(1);
        if (!ok_)
            return;
        s.assign(reinterpret_cast<const char *>(data_ + pos_), n);
        pos_ += n;
    }

    void
    blob(std::vector<std::uint8_t> &b)
    {
        const std::uint64_t n = count(1);
        if (!ok_)
            return;
        b.assign(data_ + pos_, data_ + pos_ + n);
        pos_ += n;
    }

    /** A count that must equal `n`. With `min_bytes_per_elem` != 0
     *  an impossible count fails as such first. */
    void
    expectSize(std::size_t n, std::size_t min_bytes_per_elem,
               const char *why)
    {
        const std::uint64_t got = min_bytes_per_elem == 0
                                      ? read<std::uint64_t>()
                                      : count(min_bytes_per_elem);
        if (ok_ && got != n)
            fail(why);
    }

    /** Returns `present` when the file agrees, false otherwise. */
    bool
    presence(bool present, const char *why)
    {
        const bool saved = read<std::uint8_t>() != 0;
        if (!ok_)
            return false;
        if (saved != present) {
            fail(why);
            return false;
        }
        return present;
    }

    /** A check across fields: `valid()` must hold. */
    template <class Ok, class Why>
    void
    check(Ok valid, const Why &why)
    {
        if (ok_ && !valid())
            fail(why);
    }

    /** Replaces `c` only once every element was read and passed;
     *  with a predicate, the count must pass it first. */
    template <class C, class Fn, class Ok = Any>
    void
    seq(C &c, std::size_t min_bytes_per_elem, Fn fn, Ok valid_count = {},
        const char *why = "")
    {
        const std::uint64_t n = count(min_bytes_per_elem);
        if (!ok_)
            return;
        if (!valid_count(n)) {
            fail(why);
            return;
        }
        C fresh(n);
        for (auto &e : fresh) {
            fn(*this, e);
            if (!ok_)
                return;
        }
        c = std::move(fresh);
    }

    /** Clears `m`, then inserts each entry once read and valid. */
    template <class M, class Fn>
    void
    entries(M &m, std::size_t min_bytes_per_elem, Fn fn)
    {
        const std::uint64_t n = count(min_bytes_per_elem);
        if (!ok_)
            return;
        m.clear();
        for (std::uint64_t i = 0; i < n; ++i) {
            typename M::key_type k{};
            typename M::mapped_type v{};
            fn(*this, k, v);
            if (!ok_)
                return;
            m.insert_or_assign(std::move(k), std::move(v));
        }
    }

    /** Reads a copy of `live` and assigns it back only when every
     *  field and check passed. */
    template <class T, class Fn>
    void
    staged(T &live, Fn fn)
    {
        T v = live;
        fn(*this, v);
        if (ok_)
            live = std::move(v);
    }

  private:
    template <class W>
    W
    read()
    {
        if (!ok_)
            return 0;
        if (remaining() < sizeof(W)) {
            fail("truncated checkpoint: short read of u" +
                 std::to_string(8 * sizeof(W)));
            return 0;
        }
        W v = 0;
        for (unsigned i = 0; i < sizeof(W); ++i)
            v |= static_cast<W>(static_cast<W>(data_[pos_ + i])
                                << (8 * i));
        pos_ += sizeof(W);
        return v;
    }

    template <class W, class V, class Ok>
    void
    field(V &v, Ok valid, const char *why)
    {
        const W w = read<W>();
        if (!ok_)
            return;
        if (!valid(w)) {
            fail(why);
            return;
        }
        v = static_cast<V>(w);
    }

    /**
     * An element count whose payload needs at least
     * `min_bytes_per_elem` bytes each: rejected before allocation
     * when the remaining bytes cannot possibly hold it, so fuzzed
     * counts never turn into multi-gigabyte allocations.
     */
    std::uint64_t
    count(std::size_t min_bytes_per_elem)
    {
        const std::uint64_t n = read<std::uint64_t>();
        if (!ok_)
            return 0;
        const std::uint64_t per =
            min_bytes_per_elem == 0 ? 1 : min_bytes_per_elem;
        if (n > remaining() / per) {
            fail("element count exceeds remaining bytes");
            return 0;
        }
        return n;
    }

    const std::uint8_t *data_;
    std::size_t size_;
    std::size_t pos_ = 0;
    bool ok_ = true;
    std::string error_;
};

} // namespace metro

#endif // METRO_SERVE_STATEIO_HH
