/**
 * @file
 * PlacementMap: the physical layout of a CMP as data, not code.
 *
 * A placement assigns every core, L2 bank and memory controller to a
 * router on an arbitrary cols x rows grid. The paper's fixed Figure 1a
 * layout (4x3, cores on the outer rows, controllers in the middle)
 * becomes just one named builder among several:
 *
 *   - "paper-4x3"  the Figure 1a shape, generalized to numCores/2 x 3
 *                  for any even core count; bit-for-bit today's layout.
 *   - "tiled"      square-ish tiles for 16/32/64 cores: one core per
 *                  router with its bank cluster co-located, controllers
 *                  spread over the central row.
 *   - explicit     a serialized map (espnuca-placement-v1 text) giving
 *                  every assignment, e.g. produced by espnuca-place.
 *
 * `SystemConfig::placement` selects the builder (or carries the full
 * serialized text, so the config digest covers the *content* of an
 * explicit map, never a file path). `SystemConfig::meshCols/meshRows`
 * override the grid dimensions where the builder allows it.
 *
 * Placement errors are structured diagnoses (PlacementError naming the
 * offending knob), never asserts mid-construction — degenerate configs
 * must be reportable from `espnuca-sim` with a real message.
 */

#ifndef ESPNUCA_NET_PLACEMENT_HPP_
#define ESPNUCA_NET_PLACEMENT_HPP_

#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "common/snapshot.hpp"
#include "common/types.hpp"

namespace espnuca {

/** A degenerate or inconsistent placement/config, with the knob named. */
class PlacementError : public std::runtime_error
{
  public:
    explicit PlacementError(const std::string &what)
        : std::runtime_error(what)
    {
    }
};

/**
 * Node assignment for every core, bank and memory controller on a
 * cols x rows router grid. Node ids are row-major: id = y * cols + x.
 */
struct PlacementMap
{
    std::string name;                //!< builder name or "custom"
    std::uint32_t cols = 0;
    std::uint32_t rows = 0;
    std::vector<NodeId> coreNodes;   //!< indexed by CoreId
    std::vector<NodeId> bankNodes;   //!< indexed by BankId
    std::vector<NodeId> memNodes;    //!< indexed by controller id

    std::uint32_t numNodes() const { return cols * rows; }

    /**
     * Centered round-to-nearest spread of `count` entities over `cols`
     * columns: entity i sits at the midpoint of its 1/count slice.
     * Unlike the old `i * cols / count` (which collapses several
     * controllers onto column 0 on narrow meshes and never reaches the
     * last column), this keeps assignments distinct whenever
     * count <= cols, is symmetric about the grid center, and reduces
     * to the identity when count == cols.
     */
    static std::uint32_t
    spreadColumn(std::uint32_t i, std::uint32_t count, std::uint32_t cols)
    {
        return (2 * i + 1) * cols / (2 * count);
    }

    /** The paper's Figure 1a shape: numCores/2 x 3, first half of the
     *  cores on row 0, second half on row 2, each core's bank cluster
     *  co-located with it, controllers spread over the central row. */
    static PlacementMap
    paper(const SystemConfig &cfg)
    {
        if (cfg.numCores < 2 || cfg.numCores % 2 != 0)
            throw PlacementError(
                "numCores: paper-4x3 placement needs an even core "
                "count >= 2, got " + std::to_string(cfg.numCores));
        PlacementMap p;
        p.name = "paper-4x3";
        p.cols = cfg.numCores / 2;
        p.rows = 3;
        if (cfg.meshCols != 0 && cfg.meshCols != p.cols)
            throw PlacementError(
                "meshCols: paper-4x3 placement fixes cols = numCores/2 "
                "= " + std::to_string(p.cols) + ", got " +
                std::to_string(cfg.meshCols));
        if (cfg.meshRows != 0 && cfg.meshRows != p.rows)
            throw PlacementError(
                "meshRows: paper-4x3 placement fixes rows = 3, got " +
                std::to_string(cfg.meshRows));
        p.coreNodes.resize(cfg.numCores);
        for (CoreId c = 0; c < cfg.numCores; ++c) {
            const std::uint32_t row = (c < p.cols) ? 0 : 2;
            p.coreNodes[c] = row * p.cols + c % p.cols;
        }
        p.placeBanksWithOwners(cfg);
        p.memNodes.resize(cfg.memControllers);
        for (std::uint32_t mc = 0; mc < cfg.memControllers; ++mc)
            p.memNodes[mc] =
                p.cols + spreadColumn(mc, cfg.memControllers, p.cols);
        return p;
    }

    /** Square-ish tiled layout for scaling runs: one core per router
     *  (row-major), its bank cluster co-located, controllers spread
     *  over the central row. 16 -> 4x4, 32 -> 8x4, 64 -> 8x8; explicit
     *  meshCols/meshRows override the derived dimensions. */
    static PlacementMap
    tiled(const SystemConfig &cfg)
    {
        if (cfg.numCores < 1)
            throw PlacementError("numCores: tiled placement needs at "
                                 "least one core");
        PlacementMap p;
        p.name = "tiled";
        if (cfg.meshCols != 0 || cfg.meshRows != 0) {
            if (cfg.meshCols == 0 || cfg.meshRows == 0)
                throw PlacementError(
                    "meshCols/meshRows: specify both mesh dimensions "
                    "or neither");
            p.cols = cfg.meshCols;
            p.rows = cfg.meshRows;
        } else {
            // Widest power-of-two grid no taller than wide.
            std::uint32_t cols = 1;
            while (cols * cols < cfg.numCores)
                cols *= 2;
            p.cols = cols;
            p.rows = (cfg.numCores + cols - 1) / cols;
        }
        if (static_cast<std::uint64_t>(p.cols) * p.rows < cfg.numCores)
            throw PlacementError(
                "meshCols: " + std::to_string(p.cols) + "x" +
                std::to_string(p.rows) + " grid has fewer routers than "
                "numCores = " + std::to_string(cfg.numCores));
        p.coreNodes.resize(cfg.numCores);
        for (CoreId c = 0; c < cfg.numCores; ++c)
            p.coreNodes[c] = c; // row-major, one core per router
        p.placeBanksWithOwners(cfg);
        p.memNodes.resize(cfg.memControllers);
        const std::uint32_t midRow = p.rows / 2;
        for (std::uint32_t mc = 0; mc < cfg.memControllers; ++mc)
            p.memNodes[mc] =
                midRow * p.cols +
                spreadColumn(mc, cfg.memControllers, p.cols);
        return p;
    }

    /** Parse the espnuca-placement-v1 text format (see serialize()). */
    static PlacementMap
    parse(const std::string &text, const SystemConfig &cfg)
    {
        std::istringstream in(text);
        std::string tok;
        if (!(in >> tok) || tok != "espnuca-placement-v1")
            throw PlacementError(
                "placement: expected espnuca-placement-v1 header");
        PlacementMap p;
        p.name = "custom";
        p.coreNodes.assign(cfg.numCores, kInvalidNode);
        p.bankNodes.assign(cfg.l2Banks, kInvalidNode);
        p.memNodes.assign(cfg.memControllers, kInvalidNode);
        bool haveBanks = false;
        while (in >> tok) {
            if (tok == "mesh") {
                if (!(in >> p.cols >> p.rows))
                    throw PlacementError("placement: malformed mesh line");
                continue;
            }
            std::uint32_t id = 0, x = 0, y = 0;
            if (!(in >> id >> x >> y))
                throw PlacementError("placement: malformed " + tok +
                                     " line");
            if (p.cols == 0 || p.rows == 0)
                throw PlacementError(
                    "placement: mesh line must precede assignments");
            if (x >= p.cols || y >= p.rows)
                throw PlacementError(
                    "placement: " + tok + " " + std::to_string(id) +
                    " at (" + std::to_string(x) + "," +
                    std::to_string(y) + ") is outside the " +
                    std::to_string(p.cols) + "x" + std::to_string(p.rows) +
                    " grid");
            const NodeId node = y * p.cols + x;
            auto assign = [&](std::vector<NodeId> &v, const char *kind,
                              std::size_t limit) {
                if (id >= limit)
                    throw PlacementError(
                        "placement: " + std::string(kind) + " id " +
                        std::to_string(id) + " out of range (config has " +
                        std::to_string(limit) + ")");
                v[id] = node;
            };
            if (tok == "core") {
                assign(p.coreNodes, "core", cfg.numCores);
            } else if (tok == "bank") {
                assign(p.bankNodes, "bank", cfg.l2Banks);
                haveBanks = true;
            } else if (tok == "mem") {
                assign(p.memNodes, "mem", cfg.memControllers);
            } else {
                throw PlacementError("placement: unknown directive '" +
                                     tok + "'");
            }
        }
        for (CoreId c = 0; c < cfg.numCores; ++c)
            if (p.coreNodes[c] == kInvalidNode)
                throw PlacementError("placement: core " +
                                     std::to_string(c) + " unassigned");
        for (std::uint32_t mc = 0; mc < cfg.memControllers; ++mc)
            if (p.memNodes[mc] == kInvalidNode)
                throw PlacementError("placement: mem " +
                                     std::to_string(mc) + " unassigned");
        if (!haveBanks) {
            // Banks default to their owning core's router.
            p.placeBanksWithOwners(cfg);
        } else {
            for (BankId b = 0; b < cfg.l2Banks; ++b)
                if (p.bankNodes[b] == kInvalidNode)
                    throw PlacementError("placement: bank " +
                                         std::to_string(b) +
                                         " unassigned");
        }
        return p;
    }

    /** Canonical text form; parse(serialize(p)) round-trips exactly. */
    std::string
    serialize() const
    {
        std::ostringstream os;
        os << "espnuca-placement-v1\n";
        os << "mesh " << cols << " " << rows << "\n";
        auto emit = [&](const char *kind, const std::vector<NodeId> &v) {
            for (std::size_t i = 0; i < v.size(); ++i)
                os << kind << " " << i << " " << v[i] % cols << " "
                   << v[i] / cols << "\n";
        };
        emit("core", coreNodes);
        emit("bank", bankNodes);
        emit("mem", memNodes);
        return os.str();
    }

    /**
     * Structural checks shared by every construction path. Promises:
     * cores occupy distinct routers; controllers occupy distinct
     * routers whenever memControllers <= cols (narrower meshes may
     * legally share). Throws PlacementError naming the offender.
     */
    void
    validate(const SystemConfig &cfg) const
    {
        if (cols == 0 || rows == 0)
            throw PlacementError("meshCols/meshRows: zero-sized grid");
        if (static_cast<std::uint64_t>(cols) * rows > kMaxMeshNodes)
            throw PlacementError(
                "meshCols: a " + std::to_string(cols) + "x" +
                std::to_string(rows) + " grid exceeds " +
                std::to_string(kMaxMeshNodes) + " routers");
        if (coreNodes.size() != cfg.numCores)
            throw PlacementError(
                "numCores: placement assigns " +
                std::to_string(coreNodes.size()) + " cores, config has " +
                std::to_string(cfg.numCores));
        if (bankNodes.size() != cfg.l2Banks)
            throw PlacementError(
                "l2Banks: placement assigns " +
                std::to_string(bankNodes.size()) + " banks, config has " +
                std::to_string(cfg.l2Banks));
        if (memNodes.size() != cfg.memControllers)
            throw PlacementError(
                "memControllers: placement assigns " +
                std::to_string(memNodes.size()) +
                " controllers, config has " +
                std::to_string(cfg.memControllers));
        auto inGrid = [&](const std::vector<NodeId> &v, const char *kind) {
            for (std::size_t i = 0; i < v.size(); ++i)
                if (v[i] >= numNodes())
                    throw PlacementError(
                        "placement: " + std::string(kind) + " " +
                        std::to_string(i) + " on node " +
                        std::to_string(v[i]) + " outside the " +
                        std::to_string(cols) + "x" + std::to_string(rows) +
                        " grid");
        };
        inGrid(coreNodes, "core");
        inGrid(bankNodes, "bank");
        inGrid(memNodes, "mem");
        std::vector<char> used(numNodes(), 0);
        for (std::size_t c = 0; c < coreNodes.size(); ++c) {
            if (used[coreNodes[c]] != 0)
                throw PlacementError(
                    "placement: cores share router " +
                    std::to_string(coreNodes[c]) +
                    " (core " + std::to_string(c) + ")");
            used[coreNodes[c]] = 1;
        }
        if (memNodes.size() <= cols) {
            std::vector<char> mused(numNodes(), 0);
            for (std::size_t m = 0; m < memNodes.size(); ++m) {
                if (mused[memNodes[m]] != 0)
                    throw PlacementError(
                        "placement: controllers share router " +
                        std::to_string(memNodes[m]) + " (mem " +
                        std::to_string(m) + ") on a mesh wide enough "
                        "to keep them distinct");
                mused[memNodes[m]] = 1;
            }
        }
    }

    /** Stable content digest: covers grid shape and every assignment. */
    std::uint64_t
    digest() const
    {
        return fnv1a(serialize());
    }

    /**
     * Resolve SystemConfig's placement knobs into a validated map.
     * "" and "paper-4x3" select the paper builder, "tiled" the tiled
     * one; text starting with the espnuca-placement-v1 header is
     * parsed as an explicit map (the CLI inlines @file contents, so
     * the config carries the map itself, never a path).
     */
    static PlacementMap
    forConfig(const SystemConfig &cfg)
    {
        PlacementMap p;
        if (cfg.placement.empty() || cfg.placement == "paper-4x3") {
            p = paper(cfg);
        } else if (cfg.placement == "tiled") {
            p = tiled(cfg);
        } else if (cfg.placement.rfind("espnuca-placement-v1", 0) == 0) {
            p = parse(cfg.placement, cfg);
            if (cfg.meshCols != 0 && cfg.meshCols != p.cols)
                throw PlacementError(
                    "meshCols: explicit placement uses cols = " +
                    std::to_string(p.cols) + ", got " +
                    std::to_string(cfg.meshCols));
            if (cfg.meshRows != 0 && cfg.meshRows != p.rows)
                throw PlacementError(
                    "meshRows: explicit placement uses rows = " +
                    std::to_string(p.rows) + ", got " +
                    std::to_string(cfg.meshRows));
        } else {
            throw PlacementError(
                "placement: unknown builder '" + cfg.placement +
                "' (expected paper-4x3, tiled, or an "
                "espnuca-placement-v1 map)");
        }
        p.validate(cfg);
        return p;
    }

  private:
    /** Co-locate each bank with its owning core's router (the logical
     *  ownership b -> b / banksPerCore is placement-independent). */
    void
    placeBanksWithOwners(const SystemConfig &cfg)
    {
        bankNodes.resize(cfg.l2Banks);
        for (BankId b = 0; b < cfg.l2Banks; ++b)
            bankNodes[b] = coreNodes[b / cfg.banksPerCore()];
    }
};

/** Digest of the placement a config resolves to (identity component
 *  for snapshots; 0 is never produced, so any value is meaningful). */
inline std::uint64_t
placementDigest(const SystemConfig &cfg)
{
    return PlacementMap::forConfig(cfg).digest();
}

} // namespace espnuca

#endif // ESPNUCA_NET_PLACEMENT_HPP_
