// Fixture for tools/geoalign_lint.py: recompile-per-call Crosswalk
// member calls inside a serving hot path (src/eval/ here)
// must be flagged unless NOLINT'ed with a rationale.
namespace geoalign::eval {

struct FakeResult {};
struct FakeInput {};
struct FakeMethod {
  FakeResult Crosswalk(const FakeInput&) const { return {}; }
};

FakeResult ServeColumn(const FakeMethod& method, const FakeInput& input) {
  return method.Crosswalk(input);  // violation: recompiles per call
}

FakeResult ServeColumnPtr(const FakeMethod* method, const FakeInput& input) {
  return method->Crosswalk(input);  // violation: pointer member call
}

FakeResult ServeColumnSuppressed(const FakeMethod& method,
                                 const FakeInput& input) {
  // NOLINTNEXTLINE(geoalign-plan-bypass): baselines have no plan form.
  return method.Crosswalk(input);
}

}  // namespace geoalign::eval
