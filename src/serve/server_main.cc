// rfed_server — the deployment entry point of the serve layer
// (docs/DEPLOYMENT.md). Listens for rfed_worker connections, then runs
// the full federated round loop — selection, broadcast, aggregation,
// evaluation, checkpointing — for any of the repo's algorithms, shipping
// each client's local training to its worker over TCP. The trajectory is
// byte-identical to the in-process simulator run with the same scenario
// flags; the differential tests enforce it.
//
// Example (one command line):
//   ./build/src/rfed_server --listen 127.0.0.1:7710 --workers 2
//       --method Scaffold --clients 4 --rounds 5 --csv_out run.csv

#include <csignal>
#include <cstdio>
#include <cstring>
#include <string>

#include "fl/checkpoint.h"
#include "fl/trainer.h"
#include "net/socket.h"
#include "serve/remote_executor.h"
#include "serve/scenario.h"
#include "util/flags.h"

namespace {

using namespace rfed;

constexpr const char* kUsage = R"(usage: rfed_server [--flag value | --flag=value ...]

Runs the federated server: accepts --workers rfed_worker connections on
--listen, then drives the round loop with local training delegated to
the workers. Byte-identical to the in-process simulator under the same
scenario flags.

Deployment:
  --listen host:port to bind (127.0.0.1:7710); port 0 = kernel-assigned
  --workers number of rfed_worker processes to wait for (1)
  --pipeline overlap the broadcast of queued jobs with the upload tail
      of earlier ones (false; trajectory is unchanged either way)
  --port_file PATH write the bound port as text (for harnesses using
      --listen with port 0)
  --model_out PATH write the final global model tensor
  --help print this message and exit

SIGTERM/SIGINT: finish the round in flight, write a final checkpoint to
--checkpoint_path (if set), notify workers, and exit cleanly; resuming
via --resume_from reproduces the uninterrupted run byte for byte.

)";

std::atomic<bool> g_stop{false};

void HandleStopSignal(int) { g_stop.store(true, std::memory_order_relaxed); }

constexpr const char* kServeFlags[] = {"listen",    "workers",   "pipeline",
                                       "port_file", "model_out", "help"};

}  // namespace

int main(int argc, char** argv) {
  std::signal(SIGPIPE, SIG_IGN);
  FlagParser flags(argc, argv);
  if (flags.GetBool("help", false)) {
    std::fputs(kUsage, stdout);
    std::fputs(serve::ScenarioUsage(), stdout);
    return 0;
  }
  for (const std::string& key : flags.Keys()) {
    bool known = false;
    for (const char* k : kServeFlags) known = known || key == k;
    for (const std::string& k : serve::ScenarioFlagNames()) {
      known = known || key == k;
    }
    if (!known) {
      std::fprintf(stderr, "unknown flag --%s (see --help)\n", key.c_str());
      return 1;
    }
  }

  const HostPort listen = flags.GetHostPort("listen", "127.0.0.1:7710");
  const int num_workers = flags.GetIntInRange("workers", 1, 1, 1024);
  const bool pipeline = flags.GetBool("pipeline", false);
  const std::string port_file = flags.GetString("port_file", "");
  const std::string model_out = flags.GetString("model_out", "");

  serve::Scenario scenario = serve::BuildScenario(flags);

  // The state blob every worker restores at HELLO_ACK: the checkpoint's
  // algorithm state when resuming, else the freshly constructed state.
  RunCheckpoint resume;
  const bool resuming = !scenario.resume_from.empty();
  std::vector<uint8_t> state_blob;
  if (resuming) {
    resume = RunCheckpoint::Load(scenario.resume_from);
    state_blob = resume.algorithm_state;
    std::printf("resuming from %s at round %d\n",
                scenario.resume_from.c_str(), resume.next_round);
  } else {
    scenario.algorithm->SaveRunState(&state_blob);
  }

  net::TcpListener listener(listen.host, listen.port);
  std::printf("rfed_server listening on %s:%d (%s, %d workers, %d clients, "
              "%d rounds%s)\n",
              listen.host.c_str(), listener.bound_port(),
              scenario.method.c_str(), num_workers,
              static_cast<int>(scenario.views.size()), scenario.rounds,
              pipeline ? ", pipelined" : "");
  std::fflush(stdout);
  if (!port_file.empty()) {
    std::FILE* f = std::fopen(port_file.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write --port_file %s\n",
                   port_file.c_str());
      return 1;
    }
    std::fprintf(f, "%d\n", listener.bound_port());
    std::fclose(f);
  }

  serve::ExecutorOptions exec_options;
  exec_options.pipelined = pipeline;
  exec_options.worker_timeout_ms = scenario.worker_timeout_ms;
  exec_options.max_worker_restarts = scenario.max_worker_restarts;
  serve::RemoteExecutor executor(exec_options);
  executor.AcceptWorkers(&listener, num_workers, scenario.fingerprint,
                         state_blob);
  // Rejoining workers get the algorithm's current state image rather
  // than the stale launch-time blob.
  FederatedAlgorithm* algorithm = scenario.algorithm.get();
  executor.set_state_provider([algorithm] {
    std::vector<uint8_t> blob;
    algorithm->SaveRunState(&blob);
    return blob;
  });
  scenario.algorithm->set_train_executor(&executor);

  std::signal(SIGTERM, HandleStopSignal);
  std::signal(SIGINT, HandleStopSignal);

  TrainerOptions options;
  options.eval_every = scenario.eval_every;
  options.eval_max_examples = 400;
  options.verbose = true;
  options.checkpoint_every = scenario.checkpoint_every;
  options.checkpoint_path = scenario.checkpoint_path;
  options.stop_requested = &g_stop;
  if (options.checkpoint_every > 0 && options.checkpoint_path.empty()) {
    std::fprintf(stderr, "--checkpoint_every needs --checkpoint_path\n");
    return 1;
  }
  FederatedTrainer trainer(scenario.algorithm.get(), scenario.test.get(),
                           options);
  RunHistory history = resuming
                           ? trainer.Run(scenario.rounds, &resume)
                           : trainer.Run(scenario.rounds);
  executor.Shutdown();

  const bool stopped = g_stop.load(std::memory_order_relaxed);
  std::printf("\n%s on %s: final=%.3f best=%.3f total_comm=%lld bytes "
              "wire_overhead=%lld bytes%s\n",
              scenario.method.c_str(), scenario.dataset.c_str(),
              history.FinalAccuracy(), history.BestAccuracy(),
              static_cast<long long>(
                  scenario.algorithm->comm().total_bytes()),
              static_cast<long long>(
                  scenario.algorithm->comm().wire_overhead_bytes()),
              stopped ? " (stopped early by signal)" : "");
  const serve::ServeStats& st = executor.stats();
  std::printf("transport: workers=%d jobs=%lld results=%lld sent=%lld bytes "
              "received=%lld bytes restarts=%lld reassigned=%lld "
              "heartbeats=%lld\n",
              executor.num_workers(), static_cast<long long>(st.jobs_sent),
              static_cast<long long>(st.results_received),
              static_cast<long long>(st.bytes_sent),
              static_cast<long long>(st.bytes_received),
              static_cast<long long>(st.worker_restarts),
              static_cast<long long>(st.jobs_reassigned),
              static_cast<long long>(st.heartbeats_sent));
  if (!scenario.csv_out.empty()) {
    SaveHistoryCsv(history, scenario.csv_out);
    std::printf("per-round history written to %s\n", scenario.csv_out.c_str());
  }
  if (!model_out.empty()) {
    SaveTensorToFile(scenario.algorithm->global_state(), model_out);
    std::printf("final model written to %s\n", model_out.c_str());
  }
  return 0;
}
