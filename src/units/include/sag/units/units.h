#pragma once

// sag::units — zero-overhead strong types for the physical quantities the
// SAG pipeline juggles: linear power (Watt, Milliwatt), logarithmic power
// (DecibelMilliwatt), logarithmic ratios (Decibel), linear SNR ratios
// (SnrRatio), and distances (Meters).
//
// Why: the paper mixes dB thresholds (β = -15 dB), linear "power units"
// (P_max = 50), and distance requests (30-40 length units) in the same
// formulas, and a single silently-mixed operand turns a Fig. 4 curve into
// a plausible-looking lie. Each wrapper here holds exactly one double —
// same size, same alignment, trivially copyable, so it compiles to the
// bare scalar — but the type system only admits the physically meaningful
// operations:
//
//   * Watt + Watt, Watt - Watt, Watt * scalar      (powers add linearly)
//   * Watt / Watt -> SnrRatio                      (power ratio)
//   * SnrRatio * Watt -> Watt                      (β * interference)
//   * Decibel + Decibel                            (gains compose in dB)
//   * DecibelMilliwatt ± Decibel -> DecibelMilliwatt
//   * DecibelMilliwatt - DecibelMilliwatt -> Decibel
//   * Meters ± Meters, Meters / Meters -> scalar
//
// and every dB <-> linear crossing is an explicit, named conversion
// (`to_db`, `to_ratio`, `to_dbm`, `to_watts`, ...). `Watt + Decibel` is a
// compile error (tests/units_compile_fail.cpp proves it stays one).
//
// Conventions (see docs/STATIC_ANALYSIS.md for the full contract):
//   * Bulk storage (std::vector<double>, std::span<const double>) stays
//     raw double and is documented as watts / linear ratios; the strong
//     types guard the scalar boundaries where mixups actually happen.
//   * Decibel is a *relative* quantity (a ratio in log space);
//     DecibelMilliwatt is *absolute* power referenced to 1 mW. They do
//     not interconvert without saying what they are relative to.
//   * `.value()` is the generic escape hatch back to double. Outside
//     src/units every `.value()` call site must carry a
//     `// SAG_RAW_OK: <why>` justification — sag_lint's raw-escape rule
//     enforces it. The named accessors (`watts()`, `ratio()`, `db()`,
//     ...) are the preferred crossing: they say what the double means.

#include <cmath>
#include <compare>
#include <cstddef>
#include <span>
#include <type_traits>

namespace sag::units {

class Watt;
class Milliwatt;
class Decibel;
class DecibelMilliwatt;

/// Dimensionless linear power ratio (SNR, path gain applied to a power,
/// a dB value brought back to linear). β thresholds live here once
/// converted from dB.
class SnrRatio {
public:
    constexpr SnrRatio() = default;
    explicit constexpr SnrRatio(double ratio) : v_(ratio) {}

    constexpr double ratio() const { return v_; }
    constexpr double value() const { return v_; }

    /// 10 * log10(ratio), the dB view of this ratio.
    Decibel to_db() const;

    friend constexpr auto operator<=>(SnrRatio, SnrRatio) = default;

    friend constexpr SnrRatio operator*(SnrRatio a, SnrRatio b) {
        return SnrRatio{a.v_ * b.v_};
    }
    friend constexpr SnrRatio operator/(SnrRatio a, SnrRatio b) {
        return SnrRatio{a.v_ / b.v_};
    }
    friend constexpr SnrRatio operator*(SnrRatio r, double s) { return SnrRatio{r.v_ * s}; }
    friend constexpr SnrRatio operator*(double s, SnrRatio r) { return SnrRatio{s * r.v_}; }
    friend constexpr SnrRatio operator/(SnrRatio r, double s) { return SnrRatio{r.v_ / s}; }

private:
    double v_ = 0.0;
};

/// Linear transmit/receive power in watts (the paper's abstract "power
/// unit"; the two-ray model is scale-free so the unit name is a label
/// for the linear domain, not an SI claim).
class Watt {
public:
    constexpr Watt() = default;
    explicit constexpr Watt(double watts) : v_(watts) {}

    constexpr double watts() const { return v_; }
    constexpr double value() const { return v_; }

    constexpr Milliwatt to_milliwatts() const;
    /// 10 * log10(watts / 1 mW): absolute power on the dBm scale.
    DecibelMilliwatt to_dbm() const;

    friend constexpr auto operator<=>(Watt, Watt) = default;

    friend constexpr Watt operator+(Watt a, Watt b) { return Watt{a.v_ + b.v_}; }
    friend constexpr Watt operator-(Watt a, Watt b) { return Watt{a.v_ - b.v_}; }
    constexpr Watt operator-() const { return Watt{-v_}; }
    constexpr Watt& operator+=(Watt o) {
        v_ += o.v_;
        return *this;
    }
    constexpr Watt& operator-=(Watt o) {
        v_ -= o.v_;
        return *this;
    }
    friend constexpr Watt operator*(Watt w, double s) { return Watt{w.v_ * s}; }
    friend constexpr Watt operator*(double s, Watt w) { return Watt{s * w.v_}; }
    friend constexpr Watt operator/(Watt w, double s) { return Watt{w.v_ / s}; }
    /// Ratio of two powers: the only way Watt leaves the linear-power
    /// dimension, and it lands in SnrRatio, not bare double.
    friend constexpr SnrRatio operator/(Watt a, Watt b) { return SnrRatio{a.v_ / b.v_}; }
    /// Scale a power by a linear ratio (β * interference, gain * power).
    friend constexpr Watt operator*(SnrRatio r, Watt w) { return Watt{r.ratio() * w.v_}; }
    friend constexpr Watt operator*(Watt w, SnrRatio r) { return Watt{w.v_ * r.ratio()}; }
    friend constexpr Watt operator/(Watt w, SnrRatio r) { return Watt{w.v_ / r.ratio()}; }

private:
    double v_ = 0.0;
};

/// Linear power in milliwatts (the dBm reference scale).
class Milliwatt {
public:
    constexpr Milliwatt() = default;
    explicit constexpr Milliwatt(double milliwatts) : v_(milliwatts) {}

    constexpr double value() const { return v_; }

    constexpr Watt to_watts() const { return Watt{v_ * 1e-3}; }
    DecibelMilliwatt to_dbm() const;

    friend constexpr auto operator<=>(Milliwatt, Milliwatt) = default;

    friend constexpr Milliwatt operator+(Milliwatt a, Milliwatt b) {
        return Milliwatt{a.v_ + b.v_};
    }
    friend constexpr Milliwatt operator-(Milliwatt a, Milliwatt b) {
        return Milliwatt{a.v_ - b.v_};
    }
    friend constexpr Milliwatt operator*(Milliwatt m, double s) {
        return Milliwatt{m.v_ * s};
    }
    friend constexpr Milliwatt operator*(double s, Milliwatt m) {
        return Milliwatt{s * m.v_};
    }
    friend constexpr Milliwatt operator/(Milliwatt m, double s) {
        return Milliwatt{m.v_ / s};
    }
    friend constexpr SnrRatio operator/(Milliwatt a, Milliwatt b) {
        return SnrRatio{a.v_ / b.v_};
    }

private:
    double v_ = 0.0;
};

/// Relative quantity in decibels: an SNR threshold, a gain, a margin.
/// Adding Decibels composes gains (multiplication in linear space).
class Decibel {
public:
    constexpr Decibel() = default;
    explicit constexpr Decibel(double db) : v_(db) {}

    constexpr double db() const { return v_; }
    constexpr double value() const { return v_; }

    /// 10^(db / 10): the linear ratio this dB value denotes.
    SnrRatio to_ratio() const { return SnrRatio{std::pow(10.0, v_ / 10.0)}; }

    friend constexpr auto operator<=>(Decibel, Decibel) = default;

    friend constexpr Decibel operator+(Decibel a, Decibel b) {
        return Decibel{a.v_ + b.v_};
    }
    friend constexpr Decibel operator-(Decibel a, Decibel b) {
        return Decibel{a.v_ - b.v_};
    }
    constexpr Decibel operator-() const { return Decibel{-v_}; }
    friend constexpr Decibel operator*(Decibel d, double s) { return Decibel{d.v_ * s}; }
    friend constexpr Decibel operator*(double s, Decibel d) { return Decibel{s * d.v_}; }
    friend constexpr Decibel operator/(Decibel d, double s) { return Decibel{d.v_ / s}; }

private:
    double v_ = 0.0;
};

/// Absolute power on the logarithmic scale, referenced to 1 mW.
/// Offsetting by a Decibel stays absolute; differencing two absolute
/// levels yields the relative Decibel between them.
class DecibelMilliwatt {
public:
    constexpr DecibelMilliwatt() = default;
    explicit constexpr DecibelMilliwatt(double dbm) : v_(dbm) {}

    constexpr double value() const { return v_; }

    Milliwatt to_milliwatts() const { return Milliwatt{std::pow(10.0, v_ / 10.0)}; }
    Watt to_watts() const { return to_milliwatts().to_watts(); }

    friend constexpr auto operator<=>(DecibelMilliwatt, DecibelMilliwatt) = default;

    friend constexpr DecibelMilliwatt operator+(DecibelMilliwatt p, Decibel g) {
        return DecibelMilliwatt{p.v_ + g.db()};
    }
    friend constexpr DecibelMilliwatt operator+(Decibel g, DecibelMilliwatt p) {
        return DecibelMilliwatt{g.db() + p.v_};
    }
    friend constexpr DecibelMilliwatt operator-(DecibelMilliwatt p, Decibel g) {
        return DecibelMilliwatt{p.v_ - g.db()};
    }
    friend constexpr Decibel operator-(DecibelMilliwatt a, DecibelMilliwatt b) {
        return Decibel{a.v_ - b.v_};
    }

private:
    double v_ = 0.0;
};

/// Distance in the paper's length units (meters for concreteness).
class Meters {
public:
    constexpr Meters() = default;
    explicit constexpr Meters(double meters) : v_(meters) {}

    constexpr double meters() const { return v_; }
    constexpr double value() const { return v_; }

    friend constexpr auto operator<=>(Meters, Meters) = default;

    friend constexpr Meters operator+(Meters a, Meters b) { return Meters{a.v_ + b.v_}; }
    friend constexpr Meters operator-(Meters a, Meters b) { return Meters{a.v_ - b.v_}; }
    friend constexpr Meters operator*(Meters m, double s) { return Meters{m.v_ * s}; }
    friend constexpr Meters operator*(double s, Meters m) { return Meters{s * m.v_}; }
    friend constexpr Meters operator/(Meters m, double s) { return Meters{m.v_ / s}; }
    friend constexpr double operator/(Meters a, Meters b) { return a.v_ / b.v_; }

private:
    double v_ = 0.0;
};

constexpr Milliwatt Watt::to_milliwatts() const { return Milliwatt{v_ * 1e3}; }

inline Decibel SnrRatio::to_db() const { return Decibel{10.0 * std::log10(v_)}; }

inline DecibelMilliwatt Watt::to_dbm() const {
    return DecibelMilliwatt{10.0 * std::log10(v_ * 1e3)};
}

inline DecibelMilliwatt Milliwatt::to_dbm() const {
    return DecibelMilliwatt{10.0 * std::log10(v_)};
}

// --- Named free-function conversions (the explicit crossing points) ------

/// Linear ratio -> dB. to_db(from_db(x)) == x within 1e-12 (tested).
inline Decibel to_db(SnrRatio r) { return r.to_db(); }
/// dB -> linear ratio.
inline SnrRatio from_db(Decibel d) { return d.to_ratio(); }
/// Linear watts -> absolute dBm.
inline DecibelMilliwatt to_dbm(Watt w) { return w.to_dbm(); }
/// Absolute dBm -> linear watts.
inline Watt from_dbm(DecibelMilliwatt p) { return p.to_watts(); }

// --- User-defined literals ----------------------------------------------

inline namespace literals {
constexpr Watt operator""_W(long double v) { return Watt{static_cast<double>(v)}; }
constexpr Watt operator""_W(unsigned long long v) {
    return Watt{static_cast<double>(v)};
}
constexpr Milliwatt operator""_mW(long double v) {
    return Milliwatt{static_cast<double>(v)};
}
constexpr Milliwatt operator""_mW(unsigned long long v) {
    return Milliwatt{static_cast<double>(v)};
}
constexpr Decibel operator""_dB(long double v) { return Decibel{static_cast<double>(v)}; }
constexpr Decibel operator""_dB(unsigned long long v) {
    return Decibel{static_cast<double>(v)};
}
constexpr DecibelMilliwatt operator""_dBm(long double v) {
    return DecibelMilliwatt{static_cast<double>(v)};
}
constexpr DecibelMilliwatt operator""_dBm(unsigned long long v) {
    return DecibelMilliwatt{static_cast<double>(v)};
}
constexpr Meters operator""_m(long double v) { return Meters{static_cast<double>(v)}; }
constexpr Meters operator""_m(unsigned long long v) {
    return Meters{static_cast<double>(v)};
}
}  // namespace literals

// --- Zero-overhead guarantees (the acceptance contract) ------------------

namespace detail {
template <class T>
inline constexpr bool kZeroOverhead = sizeof(T) == sizeof(double) &&
                                      alignof(T) == alignof(double) &&
                                      std::is_trivially_copyable_v<T> &&
                                      std::is_standard_layout_v<T> &&
                                      std::is_nothrow_default_constructible_v<T>;
}  // namespace detail

static_assert(detail::kZeroOverhead<Watt>);
static_assert(detail::kZeroOverhead<Milliwatt>);
static_assert(detail::kZeroOverhead<Decibel>);
static_assert(detail::kZeroOverhead<DecibelMilliwatt>);
static_assert(detail::kZeroOverhead<Meters>);
static_assert(detail::kZeroOverhead<SnrRatio>);

// --- Typed views over bulk double buffers --------------------------------

/// Read-only unit-typed view of a structure-of-arrays double buffer.
///
/// Bulk storage stays `std::vector<double>` / `std::span<const double>` by
/// convention (see the header comment), but the *boundaries* that hand
/// such a buffer to a kernel can still say what the doubles mean:
/// `UnitSpan<Meters>` for a coordinate column, `UnitSpan<Watt>` for a
/// power column. Element access returns the strong type; `raw()` is the
/// explicit escape back to the double buffer for vector kernels. The view
/// is exactly a `std::span<const double>` in memory — no overhead on the
/// hot path (static_asserted below).
template <class Unit>
class UnitSpan {
    static_assert(detail::kZeroOverhead<Unit>,
                  "UnitSpan requires a zero-overhead unit wrapper");

public:
    constexpr UnitSpan() = default;
    explicit constexpr UnitSpan(std::span<const double> raw) : raw_(raw) {}

    constexpr std::size_t size() const { return raw_.size(); }
    constexpr bool empty() const { return raw_.empty(); }
    constexpr Unit operator[](std::size_t i) const { return Unit{raw_[i]}; }

    /// The explicit crossing back into the bulk-buffer convention.
    constexpr std::span<const double> raw() const { return raw_; }
    constexpr const double* data() const { return raw_.data(); }

private:
    std::span<const double> raw_;
};

using MetersSpan = UnitSpan<Meters>;
using WattSpan = UnitSpan<Watt>;

static_assert(sizeof(MetersSpan) == sizeof(std::span<const double>));
static_assert(sizeof(WattSpan) == sizeof(std::span<const double>));

}  // namespace sag::units
