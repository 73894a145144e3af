// Differential tests of the multi-process deployment (docs/DEPLOYMENT.md):
// rfed_server + rfed_worker processes over localhost TCP must reproduce
// the in-process simulator byte for byte. The sim-oracle contract: the
// final model tensors are byte-identical and every per-round CSV column
// matches exactly, except the process-local compute-effort columns
// (round_seconds, peak_scratch_bytes, kernel.*, autograd.*, serve.*) whose
// values depend on which process happened to run the flops — the server
// delegates local training to workers, so its tape/arena accounting
// legitimately differs from the oracle's — and the serve.* fault-handling
// counters exist only where a RemoteExecutor does.
//
// The oracle replays each scenario with a plain FederatedTrainer in a
// fork()ed child of this harness (a fresh process keeps the process-global
// metrics registry clean, so the oracle CSV carries exactly the columns a
// standalone run would).

#include <fcntl.h>
#include <gtest/gtest.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <atomic>
#include <chrono>

#include "fl/checkpoint.h"
#include "fl/trainer.h"
#include "net/fault_proxy.h"
#include "net/frame.h"
#include "net/socket.h"
#include "obs/trace.h"
#include "serve/protocol.h"
#include "serve/remote_executor.h"
#include "serve/scenario.h"
#include "serve/worker_loop.h"
#include "util/backoff.h"
#include "util/flags.h"

#ifndef RFED_SERVER_BIN
#define RFED_SERVER_BIN "rfed_server"
#endif
#ifndef RFED_WORKER_BIN
#define RFED_WORKER_BIN "rfed_worker"
#endif

namespace rfed {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "serve_test_" + name;
}

/// The tiny scenario every differential case runs: small enough that a
/// full server+workers+oracle matrix stays in single-digit seconds, big
/// enough that every client trains and the model moves each round.
std::vector<std::string> TinyScenarioFlags(const std::string& method,
                                           int rounds) {
  return {"--dataset",        "mnist",  "--model",         "mlp",
          "--method",         method,   "--clients",       "4",
          "--rounds",         std::to_string(rounds),
          "--train_examples", "96",     "--test_examples", "48",
          "--batch",          "8",      "--local_steps",   "2",
          "--sample_ratio",   "1.0",    "--eval_every",    "1",
          "--seed",           "3"};
}

serve::Scenario BuildFromArgs(const std::vector<std::string>& args) {
  std::vector<const char*> argv = {"serve_test"};
  for (const std::string& a : args) argv.push_back(a.c_str());
  FlagParser flags(static_cast<int>(argv.size()), argv.data());
  return serve::BuildScenario(flags);
}

// ---- subprocess plumbing ----

pid_t Spawn(const std::string& binary, const std::vector<std::string>& args,
            const std::string& log_path) {
  pid_t pid = fork();
  if (pid != 0) return pid;
  int fd = open(log_path.c_str(), O_CREAT | O_WRONLY | O_TRUNC, 0644);
  if (fd >= 0) {
    dup2(fd, 1);
    dup2(fd, 2);
    close(fd);
  }
  std::vector<std::string> full = {binary};
  full.insert(full.end(), args.begin(), args.end());
  std::vector<char*> argv;
  argv.reserve(full.size() + 1);
  for (std::string& a : full) argv.push_back(a.data());
  argv.push_back(nullptr);
  execv(binary.c_str(), argv.data());
  _exit(127);
}

/// Waits for `pid` with a deadline; SIGKILLs on timeout. Returns the
/// exit code, 128+signal for a signalled exit, or -1 on timeout.
int WaitForExit(pid_t pid, int timeout_ms = 60000) {
  for (int waited = 0; waited < timeout_ms; waited += 10) {
    int status = 0;
    if (waitpid(pid, &status, WNOHANG) == pid) {
      if (WIFEXITED(status)) return WEXITSTATUS(status);
      if (WIFSIGNALED(status)) return 128 + WTERMSIG(status);
      return -1;
    }
    usleep(10 * 1000);
  }
  kill(pid, SIGKILL);
  waitpid(pid, nullptr, 0);
  return -1;
}

std::string ReadFileText(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// Polls `port_file` (written by rfed_server under --listen port 0)
/// until it holds the bound port.
int AwaitPortFile(const std::string& port_file, int timeout_ms = 20000) {
  for (int waited = 0; waited < timeout_ms; waited += 20) {
    const std::string text = ReadFileText(port_file);
    if (!text.empty() && text.find('\n') != std::string::npos) {
      return std::stoi(text);
    }
    usleep(20 * 1000);
  }
  return -1;
}

// ---- the sim oracle ----

/// Replays the scenario with the plain in-process trainer in a forked
/// child (fresh metrics registry), mirroring rfed_server's trainer
/// options, and writes the oracle CSV + final model.
void RunOracle(const std::vector<std::string>& args,
               const std::string& csv_path, const std::string& model_path) {
  pid_t pid = fork();
  if (pid == 0) {
    serve::Scenario scenario = BuildFromArgs(args);
    TrainerOptions options;
    options.eval_every = scenario.eval_every;
    options.eval_max_examples = 400;
    FederatedTrainer trainer(scenario.algorithm.get(), scenario.test.get(),
                             options);
    RunHistory history = trainer.Run(scenario.rounds);
    SaveHistoryCsv(history, csv_path);
    SaveTensorToFile(scenario.algorithm->global_state(), model_path);
    _exit(0);
  }
  ASSERT_EQ(WaitForExit(pid), 0) << "oracle run failed";
}

// ---- masked CSV comparison (the sim-oracle contract) ----

bool MaskedColumn(const std::string& name) {
  return name == "round_seconds" || name == "peak_scratch_bytes" ||
         name.rfind("kernel.", 0) == 0 || name.rfind("autograd.", 0) == 0 ||
         name.rfind("serve.", 0) == 0;
}

std::vector<std::vector<std::string>> ParseCsv(const std::string& path) {
  std::vector<std::vector<std::string>> rows;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    std::vector<std::string> cells;
    std::string cell;
    std::istringstream ls(line);
    while (std::getline(ls, cell, ',')) cells.push_back(cell);
    if (!line.empty() && line.back() == ',') cells.push_back("");
    rows.push_back(std::move(cells));
  }
  return rows;
}

/// Asserts the two runs agree on every trajectory-bearing cell: the
/// non-masked column names must match in order, and each of their cells
/// must be byte-identical. Masked columns are process-local effort
/// accounting and may differ in value or (for kernel.*) presence.
void ExpectCsvEquivalent(const std::string& got_path,
                         const std::string& want_path) {
  const auto got = ParseCsv(got_path);
  const auto want = ParseCsv(want_path);
  ASSERT_GE(got.size(), 2u) << got_path << " is empty";
  ASSERT_EQ(got.size(), want.size()) << "row count mismatch";
  std::vector<size_t> got_cols, want_cols;
  for (size_t c = 0; c < got[0].size(); ++c) {
    if (!MaskedColumn(got[0][c])) got_cols.push_back(c);
  }
  for (size_t c = 0; c < want[0].size(); ++c) {
    if (!MaskedColumn(want[0][c])) want_cols.push_back(c);
  }
  ASSERT_EQ(got_cols.size(), want_cols.size())
      << "column sets differ: " << got_path << " vs " << want_path;
  for (size_t k = 0; k < got_cols.size(); ++k) {
    ASSERT_EQ(got[0][got_cols[k]], want[0][want_cols[k]])
        << "column name mismatch at index " << k;
  }
  for (size_t r = 1; r < got.size(); ++r) {
    ASSERT_EQ(got[r].size(), got[0].size()) << "ragged row " << r;
    ASSERT_EQ(want[r].size(), want[0].size()) << "ragged row " << r;
    for (size_t k = 0; k < got_cols.size(); ++k) {
      EXPECT_EQ(got[r][got_cols[k]], want[r][want_cols[k]])
          << "row " << r << " column " << got[0][got_cols[k]];
    }
  }
}

void ExpectFilesIdentical(const std::string& got, const std::string& want) {
  const std::string a = ReadFileText(got);
  const std::string b = ReadFileText(want);
  ASSERT_FALSE(a.empty()) << got << " is empty";
  EXPECT_TRUE(a == b) << got << " differs from " << want << " ("
                      << a.size() << " vs " << b.size() << " bytes)";
}

// ---- the deployment harness ----

struct DeploymentResult {
  std::string csv;
  std::string model;
};

/// Launches rfed_server (+--listen port 0) and `num_workers` rfed_worker
/// processes over localhost, waits for a clean exit everywhere, and
/// returns the run's CSV + final-model paths.
DeploymentResult RunDeployment(const std::string& tag,
                               const std::vector<std::string>& scenario,
                               int num_workers, bool pipeline,
                               std::vector<std::string> extra_server_args =
                                   {}) {
  DeploymentResult out;
  out.csv = TempPath(tag + "_server.csv");
  out.model = TempPath(tag + "_server.model");
  const std::string port_file = TempPath(tag + ".port");
  std::remove(port_file.c_str());
  std::vector<std::string> server_args = scenario;
  server_args.insert(server_args.end(),
                     {"--listen", "127.0.0.1:0", "--port_file", port_file,
                      "--workers", std::to_string(num_workers), "--pipeline",
                      pipeline ? "true" : "false", "--csv_out", out.csv,
                      "--model_out", out.model});
  server_args.insert(server_args.end(), extra_server_args.begin(),
                     extra_server_args.end());
  const pid_t server =
      Spawn(RFED_SERVER_BIN, server_args, TempPath(tag + "_server.log"));
  const int port = AwaitPortFile(port_file);
  EXPECT_GT(port, 0) << "server never published its port";
  std::vector<pid_t> workers;
  for (int w = 0; w < num_workers; ++w) {
    std::vector<std::string> worker_args = scenario;
    worker_args.insert(worker_args.end(),
                       {"--connect", "127.0.0.1:" + std::to_string(port),
                        "--worker_id", std::to_string(w), "--workers",
                        std::to_string(num_workers)});
    workers.push_back(Spawn(RFED_WORKER_BIN, worker_args,
                            TempPath(tag + "_worker" + std::to_string(w) +
                                     ".log")));
  }
  EXPECT_EQ(WaitForExit(server), 0) << "server exited uncleanly; log:\n"
                                    << ReadFileText(TempPath(tag +
                                                             "_server.log"));
  for (int w = 0; w < num_workers; ++w) {
    EXPECT_EQ(WaitForExit(workers[static_cast<size_t>(w)]), 0)
        << "worker " << w << " exited uncleanly; log:\n"
        << ReadFileText(TempPath(tag + "_worker" + std::to_string(w) +
                                 ".log"));
  }
  return out;
}

// The acceptance matrix: stateless (FedAvg), stateful with control
// variates (Scaffold), and the paper's flagship (rFedAvg+), each run
// lockstep and pipelined, always against two workers; FedAvg and
// Scaffold once more over a faulty channel (drops + retries), where
// pipelined dispatch must consume the fault lottery exactly as the
// in-process oracle does. One oracle per scenario — pipelining must not
// change the trajectory.
TEST(ServeDifferential, MatrixMatchesOracle) {
  const std::vector<std::string> kFaultFlags = {"--drop", "0.2", "--retries",
                                                "1", "--timeout_ms", "0"};
  const struct {
    const char* method;
    const char* tag;
    bool faulted;
  } kScenarios[] = {{"FedAvg", "fedavg", false},
                    {"Scaffold", "scaffold", false},
                    {"rFedAvg+", "rfedavgp", false},
                    {"FedAvg", "fedavg_faulty", true},
                    {"Scaffold", "scaffold_faulty", true}};
  for (const auto& m : kScenarios) {
    std::vector<std::string> scenario = TinyScenarioFlags(m.method, 3);
    if (m.faulted) {
      scenario.insert(scenario.end(), kFaultFlags.begin(), kFaultFlags.end());
    }
    const std::string oracle_csv = TempPath(std::string(m.tag) + "_oracle.csv");
    const std::string oracle_model =
        TempPath(std::string(m.tag) + "_oracle.model");
    RunOracle(scenario, oracle_csv, oracle_model);
    if (m.faulted) {
      // Non-vacuous: the fault lottery actually forced retransmissions.
      const auto rows = ParseCsv(oracle_csv);
      ASSERT_GE(rows.size(), 2u);
      const auto col = std::find(rows[0].begin(), rows[0].end(), "retried");
      ASSERT_NE(col, rows[0].end());
      const size_t c = static_cast<size_t>(col - rows[0].begin());
      int64_t retried = 0;
      for (size_t r = 1; r < rows.size(); ++r) {
        retried += std::stoll(rows[r][c]);
      }
      EXPECT_GT(retried, 0) << m.tag;
    }
    for (const bool pipeline : {false, true}) {
      SCOPED_TRACE(std::string(m.tag) +
                   (pipeline ? " pipelined" : " lockstep"));
      const std::string tag =
          std::string(m.tag) + (pipeline ? "_pipe" : "_lock");
      const DeploymentResult run =
          RunDeployment(tag, scenario, /*num_workers=*/2, pipeline);
      ExpectCsvEquivalent(run.csv, oracle_csv);
      ExpectFilesIdentical(run.model, oracle_model);
    }
  }
}

net::TcpConnection RetryConnect(int port) {
  BackoffPolicy policy;
  policy.initial_ms = 1.0;
  policy.max_ms = 10.0;
  return net::TcpConnection::ConnectWithRetry("127.0.0.1", port, 200, policy);
}

// SIGTERM mid-run flushes an off-cadence checkpoint; a fresh deployment
// resuming from it reproduces the uninterrupted oracle byte for byte.
TEST(ServeDifferential, SigtermCheckpointThenResumeMatchesOracle) {
  const int kRounds = 6;
  const std::vector<std::string> scenario =
      TinyScenarioFlags("rFedAvg+", kRounds);
  const std::string oracle_csv = TempPath("sigterm_oracle.csv");
  const std::string oracle_model = TempPath("sigterm_oracle.model");
  RunOracle(scenario, oracle_csv, oracle_model);

  const std::string ck = TempPath("sigterm.ck");
  std::remove(ck.c_str());

  // Phase 1: deploy, SIGTERM the server in round 0. It must finish the
  // round in flight, write the checkpoint, release the workers, and exit
  // 0. Worker 1 reaches the server through a frame relay in this process,
  // so the signal lands at a fixed point of the protocol, not after a
  // wall-clock wait: the first JOB the relay sees proves the server is
  // past the handshake (its signal handler installed), and round 0
  // cannot finish until the relay forwards that JOB.
  {
    const std::string port_file = TempPath("sigterm1.port");
    const std::string server_log = TempPath("sigterm1_server.log");
    std::remove(port_file.c_str());
    std::vector<std::string> server_args = scenario;
    server_args.insert(server_args.end(),
                       {"--listen", "127.0.0.1:0", "--port_file", port_file,
                        "--workers", "2", "--checkpoint_path", ck});
    const pid_t server = Spawn(RFED_SERVER_BIN, server_args, server_log);
    const int port = AwaitPortFile(port_file);
    ASSERT_GT(port, 0);
    net::TcpListener relay("127.0.0.1", 0);
    std::vector<pid_t> workers;
    for (int w = 0; w < 2; ++w) {
      const int target = w == 0 ? port : relay.bound_port();
      std::vector<std::string> worker_args = scenario;
      worker_args.insert(worker_args.end(),
                         {"--connect", "127.0.0.1:" + std::to_string(target),
                          "--worker_id", std::to_string(w), "--workers",
                          "2"});
      workers.push_back(Spawn(RFED_WORKER_BIN, worker_args,
                              TempPath("sigterm1_worker" +
                                       std::to_string(w) + ".log")));
    }
    net::TcpConnection worker_link = relay.Accept();
    ASSERT_TRUE(worker_link.valid());
    net::TcpConnection server_link = RetryConnect(port);
    ASSERT_TRUE(server_link.valid());
    std::thread upstream([&] {
      uint8_t buffer[65536];
      int64_t got;
      while ((got = worker_link.RecvSome(buffer, sizeof(buffer))) > 0) {
        if (!server_link.SendAll(buffer, static_cast<size_t>(got))) break;
      }
    });
    net::FrameAssembler assembler;
    net::Frame frame;
    int jobs = 0;
    while (net::RecvFrame(&server_link, &assembler, &frame)) {
      if (frame.type == net::FrameType::kJob && jobs++ == 0) {
        kill(server, SIGTERM);
      }
      if (!net::SendFrame(&worker_link, frame.type, frame.payload)) break;
    }
    EXPECT_GT(jobs, 0) << "worker 1 never received a JOB";
    EXPECT_EQ(WaitForExit(server), 0)
        << "server log:\n" << ReadFileText(server_log);
    for (pid_t w : workers) EXPECT_EQ(WaitForExit(w), 0);
    upstream.join();
    ASSERT_FALSE(ReadFileText(ck).empty())
        << "no checkpoint written on SIGTERM";
    const RunCheckpoint saved = RunCheckpoint::Load(ck);
    EXPECT_EQ(saved.next_round, 1)
        << "the stop did not land at the end of round 0";
  }

  // Phase 2: a brand-new deployment resumes from the checkpoint; its
  // full history (checkpointed prefix + resumed rounds) and final model
  // must match the uninterrupted oracle.
  const DeploymentResult resumed =
      RunDeployment("sigterm2", scenario, /*num_workers=*/2,
                    /*pipeline=*/false, {"--resume_from", ck});
  ExpectCsvEquivalent(resumed.csv, oracle_csv);
  ExpectFilesIdentical(resumed.model, oracle_model);
}

// ---- fault tolerance (the chaos differential) ----
//
// Declared before the in-process loopback test for the same ordering
// reason noted there: RunOracle's fork must happen while the
// process-global metrics registry is still clean, or the oracle CSV
// inherits columns (e.g. SCAFFOLD's comm.*.control) that the fresh
// rfed_server process never registers.

// The chaos differential: three workers behind a seeded FaultProxy whose
// plans sever two of the connections mid-run (after their 2nd and 3rd
// worker->server frames, i.e. during the early rounds). The killed
// workers' processes see EOF and rejoin through the proxy, while the
// server is held until their rejoin connections arrive; the server
// reassigns whatever jobs the dead connections still owed. The final
// model and the masked CSV must STILL be byte-identical to the fault-free
// in-process oracle — worker death is invisible to the trajectory.
TEST(ServeChaos, WorkerKillsMatrixMatchesOracle) {
  const struct {
    const char* method;
    const char* tag;
  } kMethods[] = {{"FedAvg", "chaos_fedavg"}, {"rFedAvg+", "chaos_rfp"}};
  for (const auto& m : kMethods) {
    const std::vector<std::string> scenario = TinyScenarioFlags(m.method, 3);
    const std::string oracle_csv = TempPath(std::string(m.tag) + "_oracle.csv");
    const std::string oracle_model =
        TempPath(std::string(m.tag) + "_oracle.model");
    RunOracle(scenario, oracle_csv, oracle_model);
    for (const bool pipeline : {false, true}) {
      SCOPED_TRACE(std::string(m.method) +
                   (pipeline ? " pipelined" : " lockstep"));
      const std::string tag =
          std::string(m.tag) + (pipeline ? "_pipe" : "_lock");
      const std::string csv = TempPath(tag + "_server.csv");
      const std::string model = TempPath(tag + "_server.model");
      const std::string port_file = TempPath(tag + ".port");
      const std::string server_log = TempPath(tag + "_server.log");
      std::remove(port_file.c_str());
      std::vector<std::string> server_args = scenario;
      server_args.insert(
          server_args.end(),
          {"--listen", "127.0.0.1:0", "--port_file", port_file, "--workers",
           "3", "--pipeline", pipeline ? "true" : "false", "--csv_out", csv,
           "--model_out", model, "--worker_timeout_ms", "10000",
           "--max_worker_restarts", "8"});
      const pid_t server = Spawn(RFED_SERVER_BIN, server_args, server_log);
      const int port = AwaitPortFile(port_file);
      ASSERT_GT(port, 0) << "server never published its port";

      net::FaultProxy proxy("127.0.0.1", port);
      // Seeded kill plan: whichever workers land on connections 0 and 1
      // die after forwarding their HELLO plus one / two RESULT frames.
      // Rejoin connections get fresh indices with no plan and survive.
      // Each kill freezes the server before the killing frame reaches
      // it, and the loop below thaws it only once every killed worker's
      // rejoin connection is queued on its listener. A later round still
      // needs results then, so the server polls the listener again and
      // takes the rejoin before it can finish the run, however fast the
      // rounds are.
      net::FaultPlan kill_early;
      kill_early.kill_after_frames = 2;
      kill_early.on_kill = [server] { kill(server, SIGSTOP); };
      proxy.SetPlan(0, kill_early);
      net::FaultPlan kill_later = kill_early;
      kill_later.kill_after_frames = 3;
      proxy.SetPlan(1, kill_later);

      std::vector<pid_t> workers;
      for (int w = 0; w < 3; ++w) {
        std::vector<std::string> worker_args = scenario;
        worker_args.insert(
            worker_args.end(),
            {"--connect", "127.0.0.1:" + std::to_string(proxy.listen_port()),
             "--worker_id", std::to_string(w), "--workers", "3",
             "--rejoin_attempts", "10"});
        workers.push_back(Spawn(RFED_WORKER_BIN, worker_args,
                                TempPath(tag + "_worker" + std::to_string(w) +
                                         ".log")));
      }
      for (int waited = 0, thawed = 0; thawed < 2; ++waited) {
        const int killed = proxy.killed_connections();
        if (killed > thawed && proxy.accepted_connections() >= 3 + killed) {
          kill(server, SIGCONT);
          thawed = killed;
        } else if (waited > 20000) {
          ADD_FAILURE() << killed << " kills, "
                        << proxy.accepted_connections()
                        << " connections after 20 s";
          break;
        } else {
          usleep(1000);
        }
      }
      kill(server, SIGCONT);
      EXPECT_EQ(WaitForExit(server), 0)
          << "server exited uncleanly; log:\n" << ReadFileText(server_log);
      for (int w = 0; w < 3; ++w) {
        EXPECT_EQ(WaitForExit(workers[static_cast<size_t>(w)]), 0)
            << "worker " << w << " exited uncleanly; log:\n"
            << ReadFileText(TempPath(tag + "_worker" + std::to_string(w) +
                                     ".log"));
      }
      proxy.Stop();
      EXPECT_EQ(proxy.killed_connections(), 2) << "chaos plan did not fire";
      const std::string log = ReadFileText(server_log);
      EXPECT_NE(log.find("lost"), std::string::npos)
          << "server never observed a worker death; log:\n" << log;
      EXPECT_NE(log.find("rejoined"), std::string::npos)
          << "no worker rejoined; log:\n" << log;
      ExpectCsvEquivalent(csv, oracle_csv);
      ExpectFilesIdentical(model, oracle_model);
    }
  }
}

// One in-process loopback run: RemoteExecutor on the server side,
// RunWorkerLoop on a std::thread, real localhost sockets in between —
// the whole serve path under this binary's sanitizers, no fork/exec.
struct LoopbackRun {
  RunHistory history;
  Tensor global_state;
  serve::ServeStats stats;
};

LoopbackRun RunLoopback(const std::vector<std::string>& flags,
                        const TrainerOptions& options) {
  serve::Scenario server_side = BuildFromArgs(flags);
  serve::Scenario worker_side = BuildFromArgs(flags);
  std::vector<uint8_t> state_blob;
  server_side.algorithm->SaveRunState(&state_blob);

  net::TcpListener listener("127.0.0.1", 0);
  const int port = listener.bound_port();
  std::thread worker([&] {
    BackoffPolicy policy;
    policy.initial_ms = 1.0;
    policy.max_ms = 10.0;
    net::TcpConnection conn =
        net::TcpConnection::ConnectWithRetry("127.0.0.1", port, 100, policy);
    if (!conn.valid()) {
      ADD_FAILURE() << "worker thread could not connect";
      return;
    }
    EXPECT_TRUE(serve::RunWorkerLoop(worker_side.algorithm.get(), &conn,
                                     /*worker_id=*/0, /*num_workers=*/1,
                                     worker_side.fingerprint)
                    .clean_shutdown);
  });
  serve::RemoteExecutor executor(/*pipelined=*/true);
  executor.AcceptWorkers(&listener, /*num_workers=*/1,
                         server_side.fingerprint, state_blob);
  server_side.algorithm->set_train_executor(&executor);
  FederatedTrainer serve_trainer(server_side.algorithm.get(),
                                 server_side.test.get(), options);
  LoopbackRun run;
  run.history = serve_trainer.Run(server_side.rounds);
  executor.Shutdown();
  worker.join();
  run.global_state = server_side.algorithm->global_state();
  run.stats = executor.stats();
  return run;
}

// The loopback run matches the oracle, and a traced run records the
// wire spans — JOB encode and RESULT decode on the server, JOB decode
// and RESULT encode on the worker — without moving a byte. Ordering
// note: the oracle trains first so the process-global metrics registry
// holds the identical column set when each run's CSV is written.
TEST(ServeLoopback, InProcessWorkerThreadMatchesOracle) {
  const std::vector<std::string> flags = TinyScenarioFlags("Scaffold", 3);
  TrainerOptions options;
  options.eval_every = 1;
  options.eval_max_examples = 400;

  serve::Scenario oracle = BuildFromArgs(flags);
  FederatedTrainer oracle_trainer(oracle.algorithm.get(), oracle.test.get(),
                                  options);
  RunHistory oracle_history = oracle_trainer.Run(oracle.rounds);

  const LoopbackRun served = RunLoopback(flags, options);
  EXPECT_GT(served.stats.jobs_sent, 0);
  EXPECT_EQ(served.stats.jobs_sent, served.stats.results_received);

  const std::string oracle_csv = TempPath("loopback_oracle.csv");
  const std::string serve_csv = TempPath("loopback_serve.csv");
  SaveHistoryCsv(oracle_history, oracle_csv);
  SaveHistoryCsv(served.history, serve_csv);
  ExpectCsvEquivalent(serve_csv, oracle_csv);

  const std::string oracle_model = TempPath("loopback_oracle.model");
  const std::string serve_model = TempPath("loopback_serve.model");
  SaveTensorToFile(oracle.algorithm->global_state(), oracle_model);
  SaveTensorToFile(served.global_state, serve_model);
  ExpectFilesIdentical(serve_model, oracle_model);

  obs::ClearTrace();
  obs::EnableTracing(true);
  const LoopbackRun traced = RunLoopback(flags, options);
  obs::EnableTracing(false);
  int64_t encodes = 0;
  int64_t decodes = 0;
  for (const obs::LaneTrace& lane : obs::CollectTrace()) {
    for (const obs::TraceEvent& e : lane.events) {
      encodes += std::strcmp(e.name, "wire_encode") == 0 ? 1 : 0;
      decodes += std::strcmp(e.name, "wire_decode") == 0 ? 1 : 0;
    }
  }
  obs::ClearTrace();
  // One JOB and one RESULT per job; nothing was reassigned.
  EXPECT_EQ(traced.stats.jobs_sent, served.stats.jobs_sent);
  EXPECT_EQ(encodes, 2 * traced.stats.jobs_sent);
  EXPECT_EQ(decodes, 2 * traced.stats.jobs_sent);
  const std::string traced_model = TempPath("loopback_traced.model");
  SaveTensorToFile(traced.global_state, traced_model);
  ExpectFilesIdentical(traced_model, serve_model);
}

// A worker whose scenario flags differ (here: a different seed) must be
// rejected at the handshake — the fingerprints disagree, and letting it
// in would corrupt the run silently.
TEST(ServeHandshakeDeathTest, FingerprintMismatchAborts) {
  serve::Scenario ours = BuildFromArgs(TinyScenarioFlags("FedAvg", 2));
  serve::Scenario theirs = BuildFromArgs(
      [] {
        auto f = TinyScenarioFlags("FedAvg", 2);
        f.back() = "4";  // --seed 4
        return f;
      }());
  ASSERT_NE(ours.fingerprint, theirs.fingerprint);
  EXPECT_DEATH(
      {
        std::vector<uint8_t> blob;
        ours.algorithm->SaveRunState(&blob);
        net::TcpListener listener("127.0.0.1", 0);
        const int port = listener.bound_port();
        std::thread worker([&] {
          net::TcpConnection conn =
              net::TcpConnection::Connect("127.0.0.1", port);
          serve::RunWorkerLoop(theirs.algorithm.get(), &conn, 0, 1,
                               theirs.fingerprint);
        });
        serve::RemoteExecutor executor(false);
        executor.AcceptWorkers(&listener, 1, ours.fingerprint, blob);
        worker.join();
      },
      "different scenario");
}

// A worker that accepts jobs but never answers (black-holed link) must be
// declared dead by the recv deadline and its outstanding jobs stolen by
// the survivor — with no trace in the trajectory.
TEST(ServeFault, BlackHoledWorkerJobsReassigned) {
  const std::vector<std::string> flags = TinyScenarioFlags("FedAvg", 2);
  TrainerOptions options;
  options.eval_every = 1;
  options.eval_max_examples = 400;

  serve::Scenario oracle = BuildFromArgs(flags);
  FederatedTrainer oracle_trainer(oracle.algorithm.get(), oracle.test.get(),
                                  options);
  RunHistory oracle_history = oracle_trainer.Run(oracle.rounds);

  serve::Scenario server_side = BuildFromArgs(flags);
  serve::Scenario worker_side = BuildFromArgs(flags);
  std::vector<uint8_t> state_blob;
  server_side.algorithm->SaveRunState(&state_blob);

  net::TcpListener listener("127.0.0.1", 0);
  const int port = listener.bound_port();
  std::thread black_hole([&] {
    net::TcpConnection conn = RetryConnect(port);
    ASSERT_TRUE(conn.valid());
    serve::HelloMessage hello;
    hello.worker_id = 0;
    hello.num_workers = 2;
    hello.fingerprint = server_side.fingerprint;
    EXPECT_TRUE(net::SendFrame(&conn, net::FrameType::kHello, hello.Encode()));
    net::FrameAssembler assembler;
    net::Frame frame;
    EXPECT_TRUE(net::RecvFrame(&conn, &assembler, &frame));  // HELLO_ACK
    // Swallow every JOB without answering until the server, convinced by
    // the silence, severs the link.
    while (net::RecvFrame(&conn, &assembler, &frame)) {
    }
  });
  std::thread worker([&] {
    net::TcpConnection conn = RetryConnect(port);
    ASSERT_TRUE(conn.valid());
    EXPECT_TRUE(serve::RunWorkerLoop(worker_side.algorithm.get(), &conn,
                                     /*worker_id=*/1, /*num_workers=*/2,
                                     worker_side.fingerprint)
                    .clean_shutdown);
  });
  serve::ExecutorOptions eo;
  eo.worker_timeout_ms = 300;
  serve::RemoteExecutor executor(eo);
  executor.AcceptWorkers(&listener, /*num_workers=*/2,
                         server_side.fingerprint, state_blob);
  server_side.algorithm->set_train_executor(&executor);
  FederatedTrainer trainer(server_side.algorithm.get(),
                           server_side.test.get(), options);
  RunHistory serve_history = trainer.Run(server_side.rounds);
  executor.Shutdown();
  worker.join();
  black_hole.join();

  EXPECT_GT(executor.stats().jobs_reassigned, 0);

  const std::string oracle_csv = TempPath("blackhole_oracle.csv");
  const std::string serve_csv = TempPath("blackhole_serve.csv");
  SaveHistoryCsv(oracle_history, oracle_csv);
  SaveHistoryCsv(serve_history, serve_csv);
  ExpectCsvEquivalent(serve_csv, oracle_csv);
  const std::string oracle_model = TempPath("blackhole_oracle.model");
  const std::string serve_model = TempPath("blackhole_serve.model");
  SaveTensorToFile(oracle.algorithm->global_state(), oracle_model);
  SaveTensorToFile(server_side.algorithm->global_state(), serve_model);
  ExpectFilesIdentical(serve_model, oracle_model);
}

// In-process rejoin under the sanitizers: the single worker's connection
// is severed by a FaultProxy right after round 0's results; the worker
// re-handshakes with HELLO_REJOIN straight at the server, restores the
// fresh state image, and finishes the run — byte-identical to the
// oracle, with the restart counted.
TEST(ServeFault, KilledWorkerRejoinsAndRunMatchesOracle) {
  const std::vector<std::string> flags = TinyScenarioFlags("rFedAvg+", 3);
  TrainerOptions options;
  options.eval_every = 1;
  options.eval_max_examples = 400;

  serve::Scenario oracle = BuildFromArgs(flags);
  FederatedTrainer oracle_trainer(oracle.algorithm.get(), oracle.test.get(),
                                  options);
  RunHistory oracle_history = oracle_trainer.Run(oracle.rounds);

  serve::Scenario server_side = BuildFromArgs(flags);
  serve::Scenario worker_side = BuildFromArgs(flags);
  std::vector<uint8_t> state_blob;
  server_side.algorithm->SaveRunState(&state_blob);

  net::TcpListener listener("127.0.0.1", 0);
  net::FaultProxy proxy("127.0.0.1", listener.bound_port());
  net::FaultPlan plan;
  plan.kill_after_frames = 5;  // HELLO + round 0's four RESULTs
  proxy.SetPlan(0, plan);

  std::thread worker([&] {
    net::TcpConnection conn = RetryConnect(proxy.listen_port());
    ASSERT_TRUE(conn.valid());
    const serve::WorkerLoopResult first = serve::RunWorkerLoop(
        worker_side.algorithm.get(), &conn, /*worker_id=*/0,
        /*num_workers=*/1, worker_side.fingerprint);
    EXPECT_FALSE(first.clean_shutdown);
    EXPECT_EQ(first.last_round, 0);
    conn.Close();
    // worker_main's rejoin path, inlined: reconnect (here straight at
    // the server, skipping the proxy) and re-handshake with
    // HELLO_REJOIN carrying the last completed round.
    net::TcpConnection again = RetryConnect(listener.bound_port());
    ASSERT_TRUE(again.valid());
    EXPECT_TRUE(serve::RunWorkerLoop(worker_side.algorithm.get(), &again,
                                     /*worker_id=*/0, /*num_workers=*/1,
                                     worker_side.fingerprint,
                                     /*rejoin_round=*/first.last_round)
                    .clean_shutdown);
  });
  serve::ExecutorOptions eo;
  eo.max_worker_restarts = 1;
  serve::RemoteExecutor executor(eo);
  executor.AcceptWorkers(&listener, /*num_workers=*/1,
                         server_side.fingerprint, state_blob);
  FederatedAlgorithm* algorithm = server_side.algorithm.get();
  executor.set_state_provider([algorithm] {
    std::vector<uint8_t> blob;
    algorithm->SaveRunState(&blob);
    return blob;
  });
  server_side.algorithm->set_train_executor(&executor);
  FederatedTrainer trainer(server_side.algorithm.get(),
                           server_side.test.get(), options);
  RunHistory serve_history = trainer.Run(server_side.rounds);
  executor.Shutdown();
  worker.join();
  proxy.Stop();

  EXPECT_EQ(executor.stats().worker_restarts, 1);
  EXPECT_EQ(proxy.killed_connections(), 1);

  const std::string oracle_csv = TempPath("rejoin_oracle.csv");
  const std::string serve_csv = TempPath("rejoin_serve.csv");
  SaveHistoryCsv(oracle_history, oracle_csv);
  SaveHistoryCsv(serve_history, serve_csv);
  ExpectCsvEquivalent(serve_csv, oracle_csv);
  const std::string oracle_model = TempPath("rejoin_oracle.model");
  const std::string serve_model = TempPath("rejoin_serve.model");
  SaveTensorToFile(oracle.algorithm->global_state(), oracle_model);
  SaveTensorToFile(server_side.algorithm->global_state(), serve_model);
  ExpectFilesIdentical(serve_model, oracle_model);
}

// Regression for the Shutdown/sender teardown race: a sender thread
// wedged mid-send on a peer that stopped reading must be interrupted
// (close-interrupts-send) so Shutdown returns instead of deadlocking in
// join().
TEST(ServeFault, ShutdownInterruptsWedgedSender) {
  net::TcpListener listener("127.0.0.1", 0);
  const int port = listener.bound_port();
  std::atomic<bool> release{false};
  std::thread peer([&] {
    net::TcpConnection conn = RetryConnect(port);
    ASSERT_TRUE(conn.valid());
    serve::HelloMessage hello;
    hello.worker_id = 0;
    hello.num_workers = 1;
    hello.fingerprint = 7;
    EXPECT_TRUE(net::SendFrame(&conn, net::FrameType::kHello, hello.Encode()));
    net::FrameAssembler assembler;
    net::Frame frame;
    EXPECT_TRUE(net::RecvFrame(&conn, &assembler, &frame));  // HELLO_ACK
    // Stop reading: once both socket buffers fill, the server's sender
    // blocks inside SendAll.
    while (!release.load()) usleep(1000);
  });
  serve::ExecutorOptions eo;
  eo.worker_timeout_ms = 200;  // also the Shutdown grace
  serve::RemoteExecutor executor(eo);
  executor.AcceptWorkers(&listener, 1, /*fingerprint=*/7, {});
  const Tensor big = Tensor::Zeros({1 << 20});  // 4 MiB per JOB frame
  for (int client = 0; client < 3; ++client) {
    executor.Submit(/*round=*/0, client, big, {}, {});
  }
  const auto t0 = std::chrono::steady_clock::now();
  executor.Shutdown();
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_LT(elapsed, 10.0) << "Shutdown took " << elapsed << "s";
  release.store(true);
  peer.join();
}

// Losing the only worker with the restart budget already spent cannot be
// ridden out — the run must abort with a clear error, not hang waiting
// for a rejoin that can never be accepted.
TEST(ServeFaultDeathTest, RestartBudgetExhaustedAborts) {
  serve::Scenario s = BuildFromArgs(TinyScenarioFlags("FedAvg", 2));
  EXPECT_DEATH(
      {
        std::vector<uint8_t> blob;
        s.algorithm->SaveRunState(&blob);
        net::TcpListener listener("127.0.0.1", 0);
        const int port = listener.bound_port();
        std::thread worker([&] {
          net::TcpConnection conn =
              net::TcpConnection::Connect("127.0.0.1", port);
          serve::HelloMessage hello;
          hello.worker_id = 0;
          hello.num_workers = 1;
          hello.fingerprint = s.fingerprint;
          net::SendFrame(&conn, net::FrameType::kHello, hello.Encode());
          net::FrameAssembler assembler;
          net::Frame frame;
          net::RecvFrame(&conn, &assembler, &frame);  // HELLO_ACK
          // Die before serving a single job.
        });
        serve::ExecutorOptions eo;
        eo.worker_timeout_ms = 100;
        eo.max_worker_restarts = 0;
        serve::RemoteExecutor executor(eo);
        executor.AcceptWorkers(&listener, 1, s.fingerprint, blob);
        worker.join();
        s.algorithm->set_train_executor(&executor);
        s.algorithm->RunRound(0);
      },
      "restart budget");
}

// A rejoining worker built from different scenario flags must be refused
// exactly like an initial handshake would refuse it.
TEST(ServeFaultDeathTest, RejoinFingerprintMismatchAborts) {
  serve::Scenario s = BuildFromArgs(TinyScenarioFlags("FedAvg", 2));
  EXPECT_DEATH(
      {
        std::vector<uint8_t> blob;
        s.algorithm->SaveRunState(&blob);
        net::TcpListener listener("127.0.0.1", 0);
        const int port = listener.bound_port();
        std::thread first([&] {
          net::TcpConnection conn =
              net::TcpConnection::Connect("127.0.0.1", port);
          serve::HelloMessage hello;
          hello.worker_id = 0;
          hello.num_workers = 1;
          hello.fingerprint = s.fingerprint;
          net::SendFrame(&conn, net::FrameType::kHello, hello.Encode());
          net::FrameAssembler assembler;
          net::Frame frame;
          net::RecvFrame(&conn, &assembler, &frame);  // HELLO_ACK, then die
        });
        serve::ExecutorOptions eo;
        eo.worker_timeout_ms = 100;
        eo.max_worker_restarts = 1;
        serve::RemoteExecutor executor(eo);
        executor.AcceptWorkers(&listener, 1, s.fingerprint, blob);
        first.join();
        std::thread impostor([&] {
          net::TcpConnection conn =
              net::TcpConnection::Connect("127.0.0.1", port);
          serve::HelloRejoinMessage rejoin;
          rejoin.worker_id = 0;
          rejoin.num_workers = 1;
          rejoin.fingerprint = s.fingerprint + 1;
          rejoin.last_round = 0;
          net::SendFrame(&conn, net::FrameType::kHelloRejoin, rejoin.Encode());
          net::FrameAssembler assembler;
          net::Frame frame;
          net::RecvFrame(&conn, &assembler, &frame);  // never answered
        });
        s.algorithm->set_train_executor(&executor);
        s.algorithm->RunRound(0);  // death observed, impostor's rejoin refused
        impostor.join();
      },
      "different scenario");
}

}  // namespace
}  // namespace rfed
