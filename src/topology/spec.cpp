#include "topology/spec.hpp"

#include <charconv>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <system_error>
#include <vector>

#include "topology/hypercube.hpp"
#include "topology/kary_ncube.hpp"
#include "topology/mesh2d.hpp"
#include "topology/mesh3d.hpp"

namespace mcnet::topo {

std::unique_ptr<Topology> make_topology(const std::string& spec) {
  const std::size_t colon = spec.find(':');
  if (colon == std::string::npos) throw std::invalid_argument("topology needs kind:dims");
  const std::string kind = spec.substr(0, colon);
  const std::string dims = spec.substr(colon + 1);
  // Dimensions are 'x'-separated runs of decimal digits: no sign, no
  // space, no empty run (a trailing 'x' ends in one).
  const auto parse_dims = [&spec, &dims] {
    std::vector<std::uint32_t> out;
    std::size_t pos = 0;
    for (;;) {
      const std::size_t x = dims.find('x', pos);
      const std::string part = dims.substr(pos, x == std::string::npos ? x : x - pos);
      std::uint32_t value = 0;
      const char* const end = part.data() + part.size();
      const auto [ptr, ec] = std::from_chars(part.data(), end, value);
      if (ec != std::errc() || ptr != end) {
        throw std::invalid_argument("topology \"" + spec + "\" has a bad dimension \"" +
                                    part + "\" (expected kind:NxM...)");
      }
      out.push_back(value);
      if (x == std::string::npos) return out;
      pos = x + 1;
    }
  };

  if (kind == "mesh") {
    const auto d = parse_dims();
    if (d.size() != 2) throw std::invalid_argument("mesh:WxH");
    return std::make_unique<Mesh2D>(d[0], d[1]);
  }
  if (kind == "cube") {
    const auto d = parse_dims();
    if (d.size() != 1) throw std::invalid_argument("cube:N");
    return std::make_unique<Hypercube>(d[0]);
  }
  if (kind == "mesh3") {
    const auto d = parse_dims();
    if (d.size() != 3) throw std::invalid_argument("mesh3:XxYxZ");
    return std::make_unique<Mesh3D>(d[0], d[1], d[2]);
  }
  if (kind == "kary" || kind == "karymesh") {
    const auto d = parse_dims();
    if (d.size() != 2) throw std::invalid_argument(kind + ":KxN");
    return std::make_unique<KAryNCube>(d[0], d[1], /*wrap=*/kind == "kary");
  }
  throw std::invalid_argument("unknown topology kind: " + kind);
}

}  // namespace mcnet::topo
