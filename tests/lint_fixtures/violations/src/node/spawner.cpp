#include <thread>

namespace biot {
void spawn() {
  std::thread worker([] {});
  std::jthread other([] {});
  const unsigned n = std::thread::hardware_concurrency();
  (void)n;
  worker.join();
}
}  // namespace biot
