#include "router/allocator.hh"

#include <algorithm>
#include <array>

#include "common/logging.hh"
#include "common/random.hh"

namespace metro
{

void
allocateCrossbar(std::span<const AllocRequest> requests,
                 const std::vector<bool> &available, unsigned dilation,
                 std::uint64_t random_word, bool randomize,
                 std::vector<AllocGrant> &grants)
{
    METRO_ASSERT(dilation > 0, "dilation must be positive");
    METRO_ASSERT(available.size() % dilation == 0,
                 "available mask (%zu ports) is not a whole number "
                 "of dilation-%u groups",
                 available.size(), dilation);
    METRO_ASSERT(available.size() <= kMaxAllocPorts &&
                     requests.size() <= kMaxAllocPorts,
                 "allocator supports at most %u ports (%zu backward "
                 "ports, %zu requests)",
                 kMaxAllocPorts, available.size(), requests.size());

    grants.resize(requests.size());
    const unsigned num_directions =
        static_cast<unsigned>(available.size()) / dilation;

    // Group request indices by direction with a counting pass. The
    // grouping is stable — forward-port order within a direction —
    // so the random rotation below is the only source of priority
    // variation (and is identical across a cascade group).
    std::array<std::uint8_t, kMaxAllocPorts + 1> start{};
    for (std::size_t i = 0; i < requests.size(); ++i) {
        const auto &req = requests[i];
        METRO_ASSERT(req.direction < num_directions,
                     "request direction %u out of range (radix %u)",
                     req.direction, num_directions);
        grants[i] = {req.forwardPort, kInvalidPort};
        ++start[req.direction + 1];
    }
    for (unsigned dir = 0; dir < num_directions; ++dir)
        start[dir + 1] =
            static_cast<std::uint8_t>(start[dir + 1] + start[dir]);
    std::array<std::uint8_t, kMaxAllocPorts> order{};
    std::array<std::uint8_t, kMaxAllocPorts + 1> next = start;
    for (std::size_t i = 0; i < requests.size(); ++i)
        order[next[requests[i].direction]++] =
            static_cast<std::uint8_t>(i);

    for (unsigned dir = 0; dir < num_directions; ++dir) {
        const auto first = order.begin() + start[dir];
        const auto last = order.begin() + start[dir + 1];
        if (first == last)
            continue;

        // Free ports of this direction's group.
        std::array<PortIndex, kMaxAllocPorts> free_ports{};
        std::size_t n_free = 0;
        for (unsigned k = 0; k < dilation; ++k) {
            const PortIndex b = dir * dilation + k;
            if (available[b])
                free_ports[n_free++] = b;
        }

        // Deterministic per-direction random stream derived from
        // the shared word: identical across cascaded routers.
        Xoshiro256 draw(random_word ^
                        (0x9e3779b97f4a7c15ULL * (dir + 1)));

        // Rotate request priority randomly.
        const auto n_reqs = static_cast<std::size_t>(last - first);
        if (randomize && n_reqs > 1) {
            const auto rot =
                static_cast<std::ptrdiff_t>(draw.below(n_reqs));
            std::rotate(first, first + rot, last);
        }

        // Each request in turn draws one of the ports still free;
        // the rest stay blocked once the group runs out.
        for (auto it = first; it != last && n_free > 0; ++it) {
            const auto pick =
                randomize ? static_cast<std::size_t>(draw.below(n_free))
                          : 0;
            grants[*it].backwardPort = free_ports[pick];
            std::copy(free_ports.begin() + pick + 1,
                      free_ports.begin() + n_free,
                      free_ports.begin() + pick);
            --n_free;
        }
    }
}

std::vector<AllocGrant>
allocateCrossbar(const std::vector<AllocRequest> &requests,
                 const std::vector<bool> &available, unsigned dilation,
                 std::uint64_t random_word, bool randomize)
{
    std::vector<AllocGrant> grants;
    allocateCrossbar(requests, available, dilation, random_word,
                     randomize, grants);
    return grants;
}

} // namespace metro
