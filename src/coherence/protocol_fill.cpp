/**
 * @file
 * Fill/placement stage of the transaction FSM: token collection for
 * writes, the completion-time coherence sweep, L1 fills and evictions,
 * and the memory writeback path. These helpers run inside the
 * HitReturn/Upgrading/MissFillPlace stages on behalf of finish().
 */

#include "coherence/protocol.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "coherence/l2_org.hpp"
#include "common/log.hpp"
#include "obs/profiler.hpp"

namespace espnuca {

Cycle
Protocol::collectTokens(Transaction &tx, Cycle t_ordering)
{
    BlockInfo &e = *tx.dirEntry;
    const L1Id self = l1IdOf(tx.core, tx.type == AccessType::Ifetch);
    Cycle last_ack = t_ordering;
    const NodeId home = topo_.bankNode(map_.sharedBank(tx.addr));

    // Invalidate every other L1 holder. The holder set is snapshot as
    // a bitmask (the drops below mutate the live entry) and walked in
    // ascending L1Id order, matching the old target-list iteration.
    const L1HolderMask l1_targets = e.l1Holders.withCleared(self);
    l1_targets.forEachSet([&](std::uint32_t bit) {
        const L1Id h = static_cast<L1Id>(bit);
        const NodeId n = topo_.coreNode(coreOfL1(h));
        const Cycle t_inv =
            mesh_.deliveryTime(home, n, cfg_.ctrlMsgBytes, t_ordering);
        const Cycle t_ack = mesh_.deliveryTime(
            n, tx.reqNode, cfg_.ctrlMsgBytes, t_inv + cfg_.l1TagLatency);
        last_ack = std::max(last_ack, t_ack);
        ++invalsSent_;
        dropL1Copy(tx.addr, h, e);
    });

    // Invalidate every L2 copy (tokens flow to the writer).
    const L2CopyMask l2_targets = e.l2Copies;
    l2_targets.forEachSet([&](std::uint32_t bit) {
        const BankId b = static_cast<BankId>(bit);
        const NodeId n = topo_.bankNode(b);
        const Cycle t_inv =
            mesh_.deliveryTime(home, n, cfg_.ctrlMsgBytes, t_ordering);
        const Cycle t_ack = mesh_.deliveryTime(
            n, tx.reqNode, cfg_.ctrlMsgBytes,
            t_inv + cfg_.l2TagLatency);
        last_ack = std::max(last_ack, t_ack);
        ++invalsSent_;
        const auto [set, way] = org_.findCopy(b, tx.addr);
        ESP_ASSERT(way != kNoWay, "directory bit without a bank copy");
        org_.bank(b).invalidate(set, way);
        dir_.removeL2(e, b);
    });
    return last_ack;
}

void
Protocol::sweepForWrite(Transaction &tx)
{
    BlockInfo &e = *tx.dirEntry;
    const L1Id self = l1IdOf(tx.core, tx.type == AccessType::Ifetch);
    // Snapshot the holder masks before mutating the live entry; the
    // ascending bit walk preserves the old target-list order.
    const L1HolderMask l1_targets = e.l1Holders.withCleared(self);
    l1_targets.forEachSet([&](std::uint32_t bit) {
        dropL1Copy(tx.addr, static_cast<L1Id>(bit), e);
    });
    const L2CopyMask l2_targets = e.l2Copies;
    l2_targets.forEachSet([&](std::uint32_t bit) {
        const BankId b = static_cast<BankId>(bit);
        const auto [set, way] = org_.findCopy(b, tx.addr);
        ESP_ASSERT(way != kNoWay, "directory bit without a bank copy");
        org_.bank(b).invalidate(set, way);
        dir_.removeL2(e, b);
    });
}

void
Protocol::dropL1Copy(Addr a, L1Id id, BlockInfo &e)
{
    l1s_[id].invalidate(a);
    dir_.removeL1(e, id);
}

void
Protocol::writebackToMemory(Addr a, NodeId from_node, Cycle t)
{
    const std::uint32_t mc = map_.memController(a);
    const NodeId mc_node = topo_.memNode(mc);
    const Cycle arrival =
        mesh_.deliveryTime(from_node, mc_node, cfg_.dataMsgBytes, t);
    mcs_[mc].access(arrival);
    ++writebacks_;
    if (tracer_ && tracer_->enabled())
        tracer_->record(obs::TraceKind::MemWriteback, arrival,
                        tracer_->currentTx(), a,
                        static_cast<std::uint16_t>(mc), 0, 0);
}

void
Protocol::fillRequesterL1(Transaction &tx)
{
    const L1Id id = l1IdOf(tx.core, tx.type == AccessType::Ifetch);
    L1Cache &l1 = l1s_[id];
    BlockInfo &e = *tx.dirEntry;
    const Cycle t = eq_.now();

    // Refresh path: the block is already resident (write upgrade, or a
    // lock-serialized read filled it before this same-core write/read).
    const int resident = l1.lookup(tx.addr);
    if (resident != kNoWay) {
        l1.touch(tx.addr, resident);
        if (tx.isWrite) {
            l1.markDirty(tx.addr, resident);
            l1.setOwnerToken(tx.addr, resident, true);
            dir_.setOwner(e, OwnerKind::L1, id);
        }
        return;
    }

    // A read fill takes the owner token only when nobody else can act
    // as the on-chip supplier.
    const bool owner = tx.isWrite || !e.onChip();
    const BlockMeta evicted = l1.fill(tx.addr, tx.isWrite, owner);
    dir_.addL1(e, id, owner);
    if (tx.isWrite) {
        ESP_ASSERT(e.numL1Holders() == 1 && e.l2Copies.none(),
                   "writer is not the sole holder");
        dir_.setOwner(e, OwnerKind::L1, id);
    }
    if (evicted.valid)
        handleL1Eviction(tx.core, id, evicted, t);
}

void
Protocol::handleL1Eviction(CoreId c, L1Id id, const BlockMeta &evicted,
                           Cycle t)
{
    // Let the organization place the block first so the block's
    // private/shared status survives the L1 -> L2 move; only then clear
    // the L1 holder bit. The placement path starts by looking up the
    // evicted block's directory entry; warm its index slot across the
    // virtual dispatch.
    dir_.prefetch(evicted.addr);
    const bool stored = org_.onL1Eviction(c, evicted, t);
    dir_.removeL1(dir_.entry(evicted.addr), id);
    if (!stored && evicted.dirty)
        writebackToMemory(evicted.addr, topo_.coreNode(c), t);
}

} // namespace espnuca
