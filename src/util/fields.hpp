#pragma once
/// \file fields.hpp
/// \brief Field tables: one list of member pointers per wire-visible struct.
///
/// A struct whose fields travel on the wire (the five solver options
/// structs, Diagnostics, svc::ServiceStats) declares, next to its members,
///     static constexpr auto fields() { return std::tuple{&T::a, &T::b}; }
/// listing them in wire order.  api::batch_compatible's equality and the
/// svc/wire.cpp encoders and decoders fold over that one table, so a
/// field appended to it is compared, encoded and decoded with no other
/// edit.  Process-local members (cache and control pointers) stay out of
/// the table; ci/lint_invariants.py checks every other member is in it.

#include <tuple>

namespace opmsim::util {

/// Call f(member_pointer) for every entry of T::fields(), in table order.
template <class T, class F>
constexpr void for_each_field(F&& f) {
    std::apply([&f](auto... mp) { (f(mp), ...); }, T::fields());
}

/// True when every field in T::fields() compares equal (short-circuits in
/// table order).
template <class T>
bool fields_equal(const T& a, const T& b) {
    return std::apply([&](auto... mp) { return ((a.*mp == b.*mp) && ...); },
                      T::fields());
}

} // namespace opmsim::util
