#ifndef NATIX_PERFBENCH_OPS_H_
#define NATIX_PERFBENCH_OPS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "storage/store.h"
#include "tree/tree.h"

// The seeded mutation stream of the update and serve workloads.
//
// The generator owns a shadow copy of the document tree and picks every
// op's targets from it, never from the store (no NatixStore::tree() or
// document()). Each op's result is applied back to the shadow, so the
// shadow stays the expected document: node ids, liveness, parents,
// children and labels.
namespace perfbench {

enum class OpKind : uint8_t { kInsert, kDelete, kMove, kRename };

struct Op {
  OpKind kind = OpKind::kInsert;
  /// Insert: the new node's parent. Delete/move/rename: the node.
  natix::NodeId node = natix::kInvalidNode;
  /// Move: destination parent.
  natix::NodeId parent = natix::kInvalidNode;
  /// Insert/move: sibling to insert before (kInvalidNode appends).
  natix::NodeId before = natix::kInvalidNode;
  natix::NodeKind node_kind = natix::NodeKind::kElement;
  std::string label;
  std::string content;
};

class OpStream {
 public:
  /// `shadow` is a copy of the document the store was built from. Deletes
  /// turn into inserts while the live node count is below the starting
  /// count, so the document keeps its size.
  OpStream(natix::Tree shadow, uint64_t seed);

  /// Draws the next op: 40% insert, 30% subtree delete (subtrees of at
  /// most 16 nodes), 20% subtree move, 10% rename.
  Op Next();

  /// Applies `op` to the store; on success mirrors it on the shadow and
  /// checks the store's answer (the new node id, the removed ids) against
  /// the shadow. Returns the store's status, or Internal on a mismatch.
  /// Only the store call is timed: `*call_ns` receives its duration.
  natix::Status Apply(natix::NatixStore* store, const Op& op,
                      uint64_t* call_ns);

  const natix::Tree& shadow() const { return shadow_; }

 private:
  natix::NodeId PickLive();
  natix::NodeId PickElement();
  natix::NodeId PickChildOf(natix::NodeId parent);
  bool SubtreeAtMost(natix::NodeId v, size_t cap) const;

  natix::Tree shadow_;
  natix::Rng rng_;
  size_t size_floor_;
};

}  // namespace perfbench

#endif  // NATIX_PERFBENCH_OPS_H_
