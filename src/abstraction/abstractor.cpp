#include "abstraction/abstractor.h"

#include "util/timer.h"

namespace xlv::abstraction {

AbstractionArtifacts abstractDesign(const ir::Design& design, const AbstractionOptions& opts) {
  util::Timer t;
  AbstractionArtifacts a;
  EmitCppOptions eo;
  eo.hfRatio = opts.hfRatio;
  a.source = emitCpp(design, eo);
  a.sourceLines = countLines(a.source);
  a.abstractionSeconds = t.seconds();
  return a;
}

AbstractionArtifacts abstractInjected(const mutation::InjectedDesign& injected,
                                      const AbstractionOptions& opts) {
  util::Timer t;
  AbstractionArtifacts a;
  EmitCppOptions eo;
  eo.hfRatio = opts.hfRatio;
  a.source = emitCppInjected(injected, eo);
  a.sourceLines = countLines(a.source);
  a.abstractionSeconds = t.seconds();
  return a;
}

}  // namespace xlv::abstraction
