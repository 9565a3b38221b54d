/**
 * @file
 * The dilated-crossbar allocation function.
 *
 * Allocation is the heart of METRO's stochastic path selection
 * (Section 4): when one or more connection requests name the same
 * logical output direction, each is matched with a *randomly chosen*
 * free backward port of that direction's group; requests exceeding
 * the free ports are blocked.
 *
 * The function is deliberately pure — a deterministic function of
 * (requests, port availability, shared random word) — because width
 * cascading (Section 5.1) requires that routers receiving identical
 * requests and identical shared random bits make identical
 * allocations.
 */

#ifndef METRO_ROUTER_ALLOCATOR_HH
#define METRO_ROUTER_ALLOCATOR_HH

#include <cstdint>
#include <span>
#include <vector>

#include "common/types.hh"

namespace metro
{

/**
 * Most ports, forward or backward, the allocator handles: the STATUS
 * word reports a granted backward port in a 6-bit field
 * (StatusWord::kPortMask), and a router makes at most one request
 * per forward port. The allocator groups and picks in fixed arrays
 * of this size, so a call does not touch the heap.
 */
inline constexpr unsigned kMaxAllocPorts = 64;

/** One connection request into the allocator. */
struct AllocRequest
{
    /** Requesting forward port. */
    PortIndex forwardPort = kInvalidPort;

    /** Logical output direction, in [0, radix). */
    unsigned direction = 0;
};

/** Result for one request. */
struct AllocGrant
{
    PortIndex forwardPort = kInvalidPort;

    /** Granted backward port, or kInvalidPort when blocked. */
    PortIndex backwardPort = kInvalidPort;

    bool granted() const { return backwardPort != kInvalidPort; }
};

/**
 * Allocate backward ports for this cycle's new connection requests.
 *
 * Backward port b belongs to direction b / dilation — the group of
 * `dilation` logically-equivalent outputs for that direction.
 *
 * Contention policy: request priority within a direction is rotated
 * by the shared random word (no forward port is structurally
 * favoured), and each winning request draws uniformly among the
 * remaining free ports of its group.
 *
 * @param requests   new requests (at most one per forward port)
 * @param available  per-backward-port availability (enabled, not in
 *                   use, not faulty); indexed 0..o-1
 * @param dilation   configured dilation d
 * @param random_word the cycle's shared random input bits
 * @param randomize  false = deterministic selection (lowest free
 *                   port, fixed forward-port priority): the
 *                   ablation baseline against the paper's
 *                   stochastic path selection
 * @param grants     out: resized to one AllocGrant per request,
 *                   same order as `requests` (a call with enough
 *                   capacity allocates nothing — the router's
 *                   per-cycle form)
 */
void allocateCrossbar(std::span<const AllocRequest> requests,
                      const std::vector<bool> &available,
                      unsigned dilation, std::uint64_t random_word,
                      bool randomize, std::vector<AllocGrant> &grants);

/** The same allocation, returned: one AllocGrant per request, same
 *  order as `requests`. */
std::vector<AllocGrant>
allocateCrossbar(const std::vector<AllocRequest> &requests,
                 const std::vector<bool> &available, unsigned dilation,
                 std::uint64_t random_word, bool randomize = true);

} // namespace metro

#endif // METRO_ROUTER_ALLOCATOR_HH
