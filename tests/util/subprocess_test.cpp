// Child processes inherit none of the parent's pipe ends: a compiler or a
// worker forked while another child is alive must not hold that child's
// pipes open (a reader would then wait for the unrelated process to exit
// before it sees EOF).
#include <gtest/gtest.h>

#include <string>

#include "util/subprocess.h"

namespace xlv::util {
namespace {

/// The descriptors an exec'd child starts with, as `ls` lists them.
std::string childDescriptors() {
  const SubprocessResult r = runCommandCapture({"ls", "/proc/self/fd"});
  EXPECT_TRUE(r.ok()) << r.output;
  return r.output;
}

TEST(Subprocess, LiveWorkerPipesDoNotLeakIntoOtherChildren) {
  const std::string alone = childDescriptors();
  ASSERT_FALSE(alone.empty());

  Subprocess worker = Subprocess::spawn({"cat"});
  ASSERT_TRUE(worker.started());
  EXPECT_EQ(alone, childDescriptors());

  worker.closeStdin();  // cat sees EOF and exits
  EXPECT_EQ(0, worker.wait());
}

}  // namespace
}  // namespace xlv::util
