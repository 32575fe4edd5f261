#include "svc/digest.hpp"

#include <type_traits>
#include <vector>

#include "analysis/config_io.hpp"
#include "common/fnv.hpp"

namespace wrsn::svc {

std::uint64_t scenario_digest(const analysis::ScenarioConfig& config,
                              analysis::ChargerMode mode) noexcept {
  // The field list and its order live in analysis::for_each_field; a field
  // added there is mixed here by its type.  config.seed is not a field
  // there: the cache key is (digest, seed).
  Fnv fnv;
  fnv.mix(std::uint64_t(mode));
  analysis::for_each_field(
      config, [&fnv](const char*, const char*, const auto& field) {
        using T = std::remove_cvref_t<decltype(field)>;
        if constexpr (std::is_same_v<T, double>) {
          fnv.mix(field);
        } else if constexpr (std::is_same_v<T, std::vector<net::NodeId>>) {
          fnv.mix(std::uint64_t{field.size()});
          for (const net::NodeId id : field) fnv.mix(std::uint64_t{id});
        } else {
          // std::size_t, bool and enums all mix as one 64-bit word.
          static_assert(std::is_integral_v<T> || std::is_enum_v<T>);
          fnv.mix(static_cast<std::uint64_t>(field));
        }
      });
  return fnv.hash();
}

}  // namespace wrsn::svc
