#pragma once

// sag::ids — zero-overhead strong identifier types for the entities the
// SAG pipeline indexes: subscribers (SsId), relay stations (RsId), base
// stations (BsId), candidate positions (CandId), and zones (ZoneId).
//
// Why: PR 3 (sag::units) made it a compile error to add a Watt to a
// Decibel, but the solvers still juggled five different entity-index
// spaces as interchangeable `std::size_t`. Handing an RS index to a
// per-subscriber buffer — the exact bug class that silently corrupts
// SAMC's zone→candidate→RS maps or the ILPQC oracle's prefix-diff
// bookkeeping — produced a plausible-looking wrong answer instead of a
// diagnostic. Each wrapper here holds exactly one std::uint32_t (same
// size, trivially copyable, constexpr throughout, so it compiles to the
// bare integer) and refuses to mix with other ID types or to convert
// implicitly from/to raw integers.
//
// Conventions (docs/STATIC_ANALYSIS.md, "Typed entity IDs"):
//   * IDs are *positional*: SsId{3} is row 3 of the scenario's subscriber
//     array. Zone-local solvers reuse SsId for tracked-local slots (the
//     entity kind is what the type guards, not the index space); APIs
//     that mix local and global spaces say so in their contract.
//   * Bulk numeric buffers (std::vector<double> of watts, gain matrices)
//     stay raw; an ID crosses into them explicitly via `id.index()`.
//   * Per-entity containers use IdVec/IdSpan, whose operator[] only
//     accepts the matching ID type.
//   * `invalid()` (the all-ones sentinel) marks "no entity"; default
//     construction yields it so forgotten initialization is loud in
//     debug bounds checks rather than silently row 0.
//
// tests/ids_compile_fail.cpp proves the forbidden conversions stay
// compile errors; tests/ids_test.cpp covers semantics.

#include <cassert>
#include <compare>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <limits>
#include <ostream>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

namespace sag::ids {

/// Strong typedef around std::uint32_t; Tag makes distinct, incompatible
/// instantiations. 2^32-1 entities is comfortably beyond city scale while
/// keeping IdVec keys half the width of a size_t index.
template <class Tag>
class EntityId {
public:
    using underlying = std::uint32_t;

    /// Default-constructed == invalid(): an uninitialized ID never aliases
    /// entity 0.
    constexpr EntityId() = default;

    /// Explicit by design: a raw integer must say which entity space it
    /// means. Debug builds reject values that do not fit.
    template <std::integral I>
    explicit constexpr EntityId(I v) : v_(static_cast<underlying>(v)) {
        assert(std::in_range<underlying>(v) && "entity index out of uint32 range");
    }

    /// The raw 32-bit value (also the sentinel for invalid()). Outside
    /// src/ids every call site needs a `// SAG_RAW_OK: <why>` comment
    /// (sag_lint raw-escape); prefer index() for raw-buffer subscripts.
    constexpr underlying value() const { return v_; }
    /// The explicit crossing into raw buffers: `powers[id.index()]`.
    constexpr std::size_t index() const { return static_cast<std::size_t>(v_); }

    static constexpr EntityId invalid() {
        EntityId id;
        id.v_ = kInvalid;
        return id;
    }
    constexpr bool valid() const { return v_ != kInvalid; }

    friend constexpr auto operator<=>(EntityId, EntityId) = default;

    /// Iteration support (IdRange); arithmetic beyond ++/-- is deliberately
    /// absent — offsets go through value()/index() where the reader can see
    /// the index math.
    constexpr EntityId& operator++() {
        ++v_;
        return *this;
    }
    constexpr EntityId operator++(int) {
        EntityId old = *this;
        ++v_;
        return old;
    }
    constexpr EntityId& operator--() {
        --v_;
        return *this;
    }

    friend std::ostream& operator<<(std::ostream& os, EntityId id) {
        return id.valid() ? os << id.v_ : os << "invalid";
    }

private:
    static constexpr underlying kInvalid = std::numeric_limits<underlying>::max();
    underlying v_ = kInvalid;
};

using SsId = EntityId<struct SsTag>;      ///< subscriber station s_j
using RsId = EntityId<struct RsTag>;      ///< relay station (coverage or zone-local)
using BsId = EntityId<struct BsTag>;      ///< macro base station bs_b
using CandId = EntityId<struct CandTag>;  ///< ILPQC candidate position
using ZoneId = EntityId<struct ZoneTag>;  ///< Zone Partition component
using ProfileId = EntityId<struct ProfileTag>;  ///< RadioProfile index (radio class)

/// Half-open ID interval [begin, end) for range-for loops:
/// `for (const SsId j : scenario.ss_ids())`.
template <class Id>
class IdRange {
public:
    class iterator {
    public:
        using value_type = Id;
        using difference_type = std::ptrdiff_t;
        constexpr iterator() = default;
        explicit constexpr iterator(Id id) : id_(id) {}
        constexpr Id operator*() const { return id_; }
        constexpr iterator& operator++() {
            ++id_;
            return *this;
        }
        constexpr iterator operator++(int) {
            iterator old = *this;
            ++id_;
            return old;
        }
        friend constexpr bool operator==(iterator, iterator) = default;

    private:
        Id id_{0};
    };

    constexpr IdRange(Id begin, Id end) : begin_(begin), end_(end) {}
    explicit constexpr IdRange(std::size_t count) : begin_(Id{0}), end_(Id{count}) {}

    constexpr iterator begin() const { return iterator{begin_}; }
    constexpr iterator end() const { return iterator{end_}; }
    constexpr std::size_t size() const { return end_.index() - begin_.index(); }
    constexpr bool empty() const { return begin_ == end_; }

private:
    Id begin_;
    Id end_;
};

/// The first `count` IDs of a space: `first_ids<RsId>(plan.rs_count())`.
template <class Id>
constexpr IdRange<Id> first_ids(std::size_t count) {
    return IdRange<Id>{count};
}

/// Materialized 0..count-1, for building typed index lists.
template <class Id>
std::vector<Id> all_ids(std::size_t count) {
    std::vector<Id> out;
    out.reserve(count);
    for (const Id id : first_ids<Id>(count)) out.push_back(id);
    return out;
}

template <class Id, class T>
class IdSpan;

/// std::vector whose operator[] only accepts the matching ID type.
/// Debug builds bounds-check every access (including the invalid()
/// sentinel); release access compiles to the bare vector indexing.
template <class Id, class T>
class IdVec {
public:
    using value_type = T;
    using iterator = typename std::vector<T>::iterator;
    using const_iterator = typename std::vector<T>::const_iterator;

    IdVec() = default;
    explicit IdVec(std::size_t count) : v_(count) {}
    IdVec(std::size_t count, const T& fill) : v_(count, fill) {}
    IdVec(std::initializer_list<T> init) : v_(init) {}
    /// Adopting a raw vector is explicit: the caller asserts its order
    /// really is this ID space.
    explicit IdVec(std::vector<T> raw) : v_(std::move(raw)) {}

    T& operator[](Id id) {
        assert(id.index() < v_.size() && "IdVec index out of range");
        return v_[id.index()];
    }
    const T& operator[](Id id) const {
        assert(id.index() < v_.size() && "IdVec index out of range");
        return v_[id.index()];
    }

    std::size_t size() const { return v_.size(); }
    bool empty() const { return v_.empty(); }
    void clear() { v_.clear(); }
    void reserve(std::size_t n) { v_.reserve(n); }
    void resize(std::size_t n) { v_.resize(n); }
    void resize(std::size_t n, const T& fill) { v_.resize(n, fill); }
    void assign(std::size_t n, const T& fill) { v_.assign(n, fill); }

    /// Appends and returns the new element's ID.
    Id push_back(const T& value) {
        v_.push_back(value);
        return Id{v_.size() - 1};
    }
    Id push_back(T&& value) {
        v_.push_back(std::move(value));
        return Id{v_.size() - 1};
    }

    T& front() { return v_.front(); }
    const T& front() const { return v_.front(); }
    T& back() { return v_.back(); }
    const T& back() const { return v_.back(); }

    iterator begin() { return v_.begin(); }
    iterator end() { return v_.end(); }
    const_iterator begin() const { return v_.begin(); }
    const_iterator end() const { return v_.end(); }

    /// IDs 0..size()-1, for indexed loops.
    IdRange<Id> ids() const { return IdRange<Id>{v_.size()}; }

    /// Explicit raw escape (serialization, bulk math); the ID discipline
    /// ends at this call, so outside src/ids the call site must carry a
    /// `// SAG_RAW_OK: <why>` comment (sag_lint's raw-escape rule
    /// enforces it). For plain iteration use begin()/end() or ids().
    const std::vector<T>& raw() const { return v_; }
    std::vector<T>& raw() { return v_; }

    friend bool operator==(const IdVec&, const IdVec&) = default;

private:
    std::vector<T> v_;
};

/// Non-owning view with the same typed indexing discipline as IdVec.
/// Converts implicitly from IdVec (mirroring vector -> span); adopting a
/// raw span/vector is explicit.
template <class Id, class T>
class IdSpan {
public:
    constexpr IdSpan() = default;
    // NOLINTNEXTLINE(google-explicit-constructor): IdVec -> IdSpan mirrors
    // the implicit std::vector -> std::span conversion.
    IdSpan(const IdVec<Id, std::remove_const_t<T>>& vec)
        requires std::is_const_v<T>
        : s_(vec.raw()) {}
    // NOLINTNEXTLINE(google-explicit-constructor)
    IdSpan(IdVec<Id, T>& vec)
        requires(!std::is_const_v<T>)
        : s_(vec.raw()) {}
    explicit constexpr IdSpan(std::span<T> raw) : s_(raw) {}

    constexpr T& operator[](Id id) const {
        assert(id.index() < s_.size() && "IdSpan index out of range");
        return s_[id.index()];
    }

    constexpr std::size_t size() const { return s_.size(); }
    constexpr bool empty() const { return s_.empty(); }
    constexpr IdRange<Id> ids() const { return IdRange<Id>{s_.size()}; }

    constexpr auto begin() const { return s_.begin(); }
    constexpr auto end() const { return s_.end(); }

    /// Explicit raw escape, mirroring IdVec::raw().
    constexpr std::span<T> raw() const { return s_; }

private:
    std::span<T> s_;
};

// --- Zero-overhead guarantees (the acceptance contract) ------------------

namespace detail {
template <class T>
inline constexpr bool kZeroOverheadId = sizeof(T) == sizeof(std::uint32_t) &&
                                        alignof(T) == alignof(std::uint32_t) &&
                                        std::is_trivially_copyable_v<T> &&
                                        std::is_standard_layout_v<T> &&
                                        std::is_nothrow_default_constructible_v<T>;
}  // namespace detail

static_assert(detail::kZeroOverheadId<SsId>);
static_assert(detail::kZeroOverheadId<RsId>);
static_assert(detail::kZeroOverheadId<BsId>);
static_assert(detail::kZeroOverheadId<CandId>);
static_assert(detail::kZeroOverheadId<ZoneId>);
static_assert(detail::kZeroOverheadId<ProfileId>);

}  // namespace sag::ids

/// Hashable, so IDs can key hashed containers.
template <class Tag>
struct std::hash<sag::ids::EntityId<Tag>> {
    std::size_t operator()(sag::ids::EntityId<Tag> id) const noexcept {
        return std::hash<std::uint32_t>{}(id.value());
    }
};
