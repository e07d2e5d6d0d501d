// The lazy record-and-replay protocol shared by the profile engine's
// per-column world lists and the exact engine's per-(N, ⃗τ) ones.
//
// The satisfying worlds at one sweep point (or one column of points) are
// query-independent, but recording them costs time and memory that a lone
// query would waste, so the protocol is three-step:
//
//   1st distinct query at a point  → compute plainly, leave a kSeenOnce
//                                    marker in the context blob cache;
//   2nd distinct query             → compute with recording, publish the
//                                    list (or a kTooBig tombstone when it
//                                    blew the engine's size cap);
//   later queries                  → replay the recorded list.
//
// Identical queries never reach step 2: they hit the FiniteEngine memo
// layer above this.  Replay implementations must accumulate in recorded
// order so answers stay bit-identical to the plain computation.
//
// Contexts with eager_world_recording() skip the marker step and record
// on the FIRST computation.  The service catalog enables this on snapshot
// contexts: a recorded list is the unit QueryContext::ApplyDelta patches
// across versions, and a tenant KB answers the same sweep points for its
// whole lifetime, so the lone-query-wastes-memory concern behind the lazy
// protocol does not apply there.  Recording never changes the result, so
// either mode stays bit-identical to the plain computation.
#ifndef RWL_ENGINES_WORLD_CACHE_H_
#define RWL_ENGINES_WORLD_CACHE_H_

#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/core/query_context.h"
#include "src/engines/engine.h"

namespace rwl::engines::internal {

enum class WorldCacheState { kSeenOnce, kRecorded, kTooBig };

// Whether a computation stopped on its work budget: an incomplete result,
// which is neither marked nor recorded.
inline bool Exhausted(const FiniteResult& result) { return result.exhausted; }
// A column ends at its first exhausted point (FiniteEngine::DegreesAt).
inline bool Exhausted(const std::vector<FiniteResult>& column) {
  return !column.empty() && column.back().exhausted;
}

// `List` must provide: `WorldCacheState state`, `bool valid` (set by the
// recording computation), and `size_t ByteSize() const` (for the context's
// aggregate cache budget).  `compute(List*)` runs the full computation,
// recording into the pointer when non-null; `replay(const List&)` answers
// from a recorded list.  Both return the same result type: a FiniteResult
// or a column of them.
template <typename List, typename Compute, typename Replay>
std::invoke_result_t<const Compute&, List*> LazyRecordReplay(
    QueryContext& ctx, const std::string& key, const Compute& compute,
    const Replay& replay) {
  auto worlds =
      std::static_pointer_cast<const List>(ctx.LookupBlob(key));
  if (worlds == nullptr) {
    if (!ctx.eager_world_recording()) {
      auto result = compute(static_cast<List*>(nullptr));
      // An exhausted computation is incomplete; do not mark it (nor does
      // the finite memo store an exhausted FiniteResult).
      if (!Exhausted(result)) ctx.StoreBlob(key, std::make_shared<List>());
      return result;
    }
    // Eager mode: fall through and record on the first computation.
  } else {
    switch (worlds->state) {
      case WorldCacheState::kRecorded:
        return replay(*worlds);
      case WorldCacheState::kTooBig:
        return compute(static_cast<List*>(nullptr));
      case WorldCacheState::kSeenOnce:
        break;
    }
  }
  auto recording = std::make_shared<List>();
  auto result = compute(recording.get());
  if (!Exhausted(result)) {
    recording->state = recording->valid ? WorldCacheState::kRecorded
                                        : WorldCacheState::kTooBig;
    size_t bytes = recording->ByteSize();
    ctx.StoreBlob(key, std::move(recording), bytes);
  }
  return result;
}

}  // namespace rwl::engines::internal

#endif  // RWL_ENGINES_WORLD_CACHE_H_
