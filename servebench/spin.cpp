// Keeps the CPU it runs on from idling. run.py starts one per server CPU,
// at idle priority, so any server thread that wakes there preempts it at
// once: on a shared virtual machine an idle CPU is halted, and waking it
// can wait for the host to run it again; that wait otherwise lands in
// request latencies. The loop has no PAUSE instruction: the host may read
// a loop of PAUSEs as a spinning lock and take the CPU away (pause-loop
// exiting), the very wait the spinner is there to prevent.
//
//   servebench_spin SECONDS
//
// It ends after SECONDS, or as soon as the process that started it exits.
#include <unistd.h>

#include <chrono>
#include <cstdlib>

int main(int argc, char** argv) {
  if (argc != 2) return 2;
  const pid_t parent = ::getppid();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(std::atoi(argv[1]));
  while (::getppid() == parent && std::chrono::steady_clock::now() < deadline) {
    for (int i = 0; i < 1000000; ++i) asm volatile("");
  }
  return 0;
}
