// Fixture for the tracer-record-outside-obs rule: only the obs layer may
// call Tracer::Record directly; emitters use EmitDecisionEvent.

namespace scrpqo_fixture {

struct Event {};
struct Tracer {
  void Record(Event);
};
struct Hooks {
  Tracer* tracer = nullptr;
};

void EmitDecisionEvent(Tracer*, Event);

struct Emitter {
  Hooks obs_;
  Tracer* alert_tracer_ = nullptr;

  void DirectMember(Event e) {
    obs_.tracer->Record(e);  // effects-expect(tracer-record-outside-obs)
  }

  void DirectLocal(Event e) {
    Tracer* tracer = alert_tracer_;
    tracer->Record(e);  // effects-expect(tracer-record-outside-obs)
  }

  void ThroughFunnel(Event e) {
    // The sanctioned path: clean.
    EmitDecisionEvent(obs_.tracer, e);
  }

  void TestOnlyShim(Event e) {
    SCRPQO_EFFECT_ALLOW(tracer-record-outside-obs, "fixture: fault-injection shim that must bypass the funnel");
    obs_.tracer->Record(e);
  }
};

}  // namespace scrpqo_fixture
