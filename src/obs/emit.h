// The one sanctioned way to hand a DecisionEvent to a tracer from outside
// the obs layer.
//
// Emitters (Scr, Pcm, PqoManager, the online auditor) must not call
// RingTracer::Record directly: the project lint rule
// `tracer-record-outside-obs` (tools/lint/scrpqo_lint.py) flags direct
// Record calls anywhere under src/ except src/obs/, so capture-path policy
// — null-tracer handling today; sampling, rate-limiting, or event
// validation tomorrow — has exactly one place to live instead of being
// re-implemented per emitter.
#pragma once

#include "obs/ring_tracer.h"
#include "obs/trace.h"

namespace scrpqo {

/// Records `event` against `tracer`; a null tracer drops the event (the
/// standard "tracing disabled" fast path, one branch). The event is
/// copied once, into the calling thread's ring slot.
inline void EmitDecisionEvent(RingTracer* tracer, const DecisionEvent& event) {
  if (tracer == nullptr) return;
  tracer->Record(event);
}

}  // namespace scrpqo
