/**
 * @file
 * METRO architectural parameters (paper Table 1).
 *
 * The METRO architecture separates fundamental behaviour from
 * implementation parameters; a RouterParams value picks one concrete
 * implementation out of the family (e.g. METROJR is
 * i = o = w = 4, hw = 0, dp = 1, max_d = 2).
 */

#ifndef METRO_ROUTER_PARAMS_HH
#define METRO_ROUTER_PARAMS_HH

#include <string>

#include "common/bitops.hh"
#include "common/logging.hh"
#include "router/allocator.hh"

namespace metro
{

/**
 * Architectural parameters of a METRO router implementation,
 * mirroring paper Table 1. All constraints from the table are
 * enforced by validate().
 */
struct RouterParams
{
    /** sp — number of scan paths (multiTAP), ≥ 1. */
    unsigned scanPaths = 1;

    /** w — bit width of the data channel, ≥ log2(o). */
    unsigned width = 8;

    /** max_d — maximum dilation; power of two, ≤ o. */
    unsigned maxDilation = 2;

    /** i — number of forward ports; power of two. */
    unsigned numForward = 8;

    /** o — number of backward ports; power of two, ≥ max_d. */
    unsigned numBackward = 8;

    /** ri — number of random inputs, ≥ 1. */
    unsigned randomInputs = 2;

    /** hw — header words consumed per router, ≥ 0. */
    unsigned headerWords = 0;

    /** dp — data pipestages inside the router, ≥ 1. */
    unsigned dataPipeStages = 1;

    /** max_vtd — maximum delay slots for variable turn delay, ≥ 0. */
    unsigned maxVtd = 8;

    /**
     * Check every Table 1 constraint; fatal() on violation (these
     * are user configuration errors, not simulator bugs).
     */
    void
    validate() const
    {
        if (scanPaths < 1)
            METRO_FATAL("sp must be >= 1 (got %u)", scanPaths);
        if (numForward == 0 || !isPowerOfTwo(numForward))
            METRO_FATAL("i must be a power of two (got %u)",
                        numForward);
        if (numBackward == 0 || !isPowerOfTwo(numBackward))
            METRO_FATAL("o must be a power of two (got %u)",
                        numBackward);
        if (numForward > kMaxAllocPorts || numBackward > kMaxAllocPorts)
            METRO_FATAL("simulator supports i, o <= %u (got i=%u, "
                        "o=%u)",
                        kMaxAllocPorts, numForward, numBackward);
        if (maxDilation == 0 || !isPowerOfTwo(maxDilation))
            METRO_FATAL("max_d must be a power of two (got %u)",
                        maxDilation);
        if (maxDilation > numBackward)
            METRO_FATAL("max_d (%u) must be <= o (%u)", maxDilation,
                        numBackward);
        if (width < log2Ceil(numBackward))
            METRO_FATAL("w (%u) must be >= log2(o) (%u)", width,
                        log2Ceil(numBackward));
        if (width > 32)
            METRO_FATAL("simulator supports w <= 32 (got %u)", width);
        if (randomInputs < 1)
            METRO_FATAL("ri must be >= 1 (got %u)", randomInputs);
        if (dataPipeStages < 1)
            METRO_FATAL("dp must be >= 1 (got %u)", dataPipeStages);
    }

    /** The parameter set of the METROJR minimal implementation. */
    static RouterParams
    metroJr()
    {
        RouterParams p;
        p.width = 4;
        p.numForward = 4;
        p.numBackward = 4;
        p.maxDilation = 2;
        p.headerWords = 0;
        p.dataPipeStages = 1;
        return p;
    }

    /**
     * An RN1-flavoured parameter set (the METRO ancestor): 8 ports,
     * byte-wide datapath, dilation up to 2, single pipeline stage.
     */
    static RouterParams
    rn1()
    {
        RouterParams p;
        p.width = 8;
        p.numForward = 8;
        p.numBackward = 8;
        p.maxDilation = 2;
        p.headerWords = 0;
        p.dataPipeStages = 1;
        return p;
    }
};

} // namespace metro

#endif // METRO_ROUTER_PARAMS_HH
