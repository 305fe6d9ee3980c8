//===- serve/Server.cpp - The halo serve daemon -----------------------------===//

#include "serve/Server.h"

#include "sim/Machine.h"
#include "workloads/Workload.h"

#include <unistd.h>

#include <algorithm>
#include <stdexcept>
#include <utility>

using namespace halo;

HaloDaemon::HaloDaemon(DaemonConfig ConfigIn) : Config(std::move(ConfigIn)) {}

HaloDaemon::~HaloDaemon() {
  // serve() joins everything before returning; these guards only matter
  // if construction succeeded but serve() was never reached (or threw
  // before its own cleanup).
  requestShutdown();
  if (Scheduler.joinable())
    Scheduler.join();
  std::vector<std::shared_ptr<ServeSession>> Remaining;
  {
    std::lock_guard<std::mutex> Lock(Mu);
    Remaining.swap(Sessions);
  }
  for (const std::shared_ptr<ServeSession> &S : Remaining) {
    S->wakeReader();
    if (S->Reader.joinable())
      S->Reader.join();
  }
}

void HaloDaemon::requestShutdown() {
  {
    std::lock_guard<std::mutex> Lock(Mu);
    ShuttingDown = true;
  }
  SchedulerCv.notify_all();
  QueueCv.notify_all();
}

DaemonStats HaloDaemon::currentStats() const {
  DaemonStats St;
  {
    std::lock_guard<std::mutex> Lock(Mu);
    for (const std::shared_ptr<ServeSession> &S : Sessions)
      if (S->alive())
        ++St.ActiveSessions;
  }
  {
    std::lock_guard<std::mutex> Lock(EvalsMu);
    St.WarmBenchmarks = Evals.size();
  }
  St.SessionsServed = SessionsServed.load(std::memory_order_relaxed);
  St.PlansSubmitted = PlansSubmitted.load(std::memory_order_relaxed);
  St.PlansCompleted = PlansCompleted.load(std::memory_order_relaxed);
  St.PlansCancelled = PlansCancelled.load(std::memory_order_relaxed);
  St.PlansFailed = PlansFailed.load(std::memory_order_relaxed);
  St.CellsStreamed = CellsStreamed.load(std::memory_order_relaxed);
  St.TasksExecuted = TasksExecuted.load(std::memory_order_relaxed);
  St.Workers = Pool ? Pool->workers() : 0;
  St.HasStore = Store != nullptr;
  return St;
}

int HaloDaemon::serve() {
  Listener = Socket::listenUnix(Config.SocketPath);
  Pool = std::make_unique<Executor>(Config.Jobs);
  if (!Config.StoreDir.empty())
    Store = std::make_unique<ArtifactStore>(Config.StoreDir);
  Scheduler = std::thread([this] { schedulerMain(); });

  for (;;) {
    {
      std::lock_guard<std::mutex> Lock(Mu);
      if (ShuttingDown)
        break;
      // Reap sessions whose reader loop already returned, so a
      // long-lived daemon does not accumulate dead connections.
      for (size_t I = 0; I < Sessions.size();) {
        if (Sessions[I]->readerDone()) {
          if (Sessions[I]->Reader.joinable())
            Sessions[I]->Reader.join();
          Sessions.erase(Sessions.begin() + static_cast<ptrdiff_t>(I));
          if (RrCursor > I)
            --RrCursor;
        } else {
          ++I;
        }
      }
    }
    std::optional<Socket> Conn = Listener.accept(/*TimeoutMs=*/200);
    if (!Conn)
      continue;
    std::shared_ptr<ServeSession> S;
    {
      std::lock_guard<std::mutex> Lock(Mu);
      S = std::make_shared<ServeSession>(NextSessionId++, std::move(*Conn));
      Sessions.push_back(S);
    }
    SessionsServed.fetch_add(1, std::memory_order_relaxed);
    S->Reader = std::thread([this, S] { readerMain(S); });
  }

  // Shutdown: the scheduler exits once every admitted plan has drained
  // (submissions are rejected from the moment ShuttingDown was set).
  SchedulerCv.notify_all();
  QueueCv.notify_all();
  Scheduler.join();

  std::vector<std::shared_ptr<ServeSession>> Remaining;
  {
    std::lock_guard<std::mutex> Lock(Mu);
    Remaining.swap(Sessions);
  }
  for (const std::shared_ptr<ServeSession> &S : Remaining)
    S->wakeReader();
  for (const std::shared_ptr<ServeSession> &S : Remaining)
    if (S->Reader.joinable())
      S->Reader.join();

  Listener.close();
  ::unlink(Config.SocketPath.c_str());
  return 0;
}

//===----------------------------------------------------------------------===//
// Per-session reader
//===----------------------------------------------------------------------===//

void HaloDaemon::readerMain(std::shared_ptr<ServeSession> S) {
  try {
    // Handshake: the first frame must be a Hello with our version --
    // anything else (including a future protocol talking to an old
    // daemon) gets one explanatory Error frame and a close.
    std::optional<Frame> First = readFrame(S->socket());
    if (!First) {
      S->markDead();
      S->markReaderDone();
      return;
    }
    if (First->Type != MsgType::Hello) {
      S->sendError(0, "expected Hello");
      S->markDead();
      S->markReaderDone();
      return;
    }
    uint32_t Version = decodeHello(First->Payload);
    if (Version != ServeProtocolVersion) {
      S->sendError(0, "protocol version mismatch: client speaks v" +
                          std::to_string(Version) + ", daemon speaks v" +
                          std::to_string(ServeProtocolVersion));
      S->markDead();
      S->markReaderDone();
      return;
    }
    HelloAckMsg Ack;
    Ack.Version = ServeProtocolVersion;
    Ack.Workers = Pool->workers();
    Ack.HasStore = Store != nullptr;
    S->send(MsgType::HelloAck, encodeHelloAck(Ack));

    while (std::optional<Frame> F = readFrame(S->socket())) {
      switch (F->Type) {
      case MsgType::SubmitPlan:
        handleSubmit(S, decodePlanRequest(F->Payload));
        break;
      case MsgType::Cancel:
        handleCancel(S, decodeCancel(F->Payload));
        break;
      case MsgType::Stats:
        S->send(MsgType::StatsReply, encodeStatsReply(currentStats()));
        break;
      case MsgType::Shutdown:
        S->send(MsgType::ShutdownAck, {});
        requestShutdown();
        break;
      default:
        // Server-to-client types arriving here are a confused client,
        // not a daemon problem.
        S->sendError(0, "unexpected message type " +
                            std::to_string(static_cast<unsigned>(F->Type)));
        break;
      }
    }
  } catch (const ProtocolError &E) {
    // Malformed traffic poisons only this conversation.
    S->sendError(0, std::string("protocol error: ") + E.what());
  } catch (const std::runtime_error &) {
    // Socket-level failure: the peer is simply gone.
  }

  // Reader is done (clean EOF or error): suppress further sends, abandon
  // whatever this client still had queued, and let the accept loop reap.
  S->markDead();
  {
    std::lock_guard<std::mutex> Lock(Mu);
    cancelSessionPlansLocked(*S);
  }
  SchedulerCv.notify_all();
  S->markReaderDone();
}

void HaloDaemon::handleSubmit(const std::shared_ptr<ServeSession> &S,
                              const PlanRequest &R) {
  if (R.Benchmarks.empty()) {
    S->sendError(0, "submit: no benchmarks");
    return;
  }

  // Resolve machine preset names. The daemon measures under its own
  // presets -- the same table the client's local runPlan would use -- so
  // an unknown name is the client's error, reported before any work.
  std::vector<const MachineConfig *> Machines;
  for (const std::string &Name : R.Machines) {
    const MachineConfig *M = findMachine(Name);
    if (!M) {
      S->sendError(0, "submit: unknown machine '" + Name + "'");
      return;
    }
    Machines.push_back(M);
  }

  // Warm benchmark cache: reuse (or create) the daemon's Evaluation for
  // every requested benchmark and hand them to buildPlan as external
  // instances. This is the whole point of the daemon -- the second plan
  // naming a benchmark starts from its cached traces and artifacts.
  std::vector<Evaluation *> External;
  try {
    std::lock_guard<std::mutex> Lock(EvalsMu);
    for (const std::string &Name : R.Benchmarks) {
      auto It = Evals.find(Name);
      if (It == Evals.end()) {
        if (!createWorkload(Name))
          throw std::invalid_argument("unknown benchmark '" + Name + "'");
        It = Evals.emplace(Name, std::make_unique<Evaluation>(paperSetup(Name)))
                 .first;
      }
      External.push_back(It->second.get());
    }
  } catch (const std::exception &E) {
    S->sendError(0, std::string("submit: ") + E.what());
    return;
  }

  ExperimentSpec Spec;
  Spec.Benchmarks = R.Benchmarks;
  Spec.Machines = Machines;
  Spec.Kinds = R.Kinds;
  Spec.S = R.S;
  Spec.Trials = R.Trials;
  Spec.SeedBase = R.SeedBase;

  auto P = std::make_unique<PlanState>();
  P->Owner = S;
  try {
    P->Plan = buildPlan({Spec}, External, Store.get());
  } catch (const std::exception &E) {
    S->sendError(0, std::string("submit: ") + E.what());
    return;
  }

  // Admission control: this reader (and only this reader's client) blocks
  // until the daemon has room. Shutdown also wakes us, to reject.
  {
    std::unique_lock<std::mutex> Lock(Mu);
    QueueCv.wait(Lock, [&] {
      return ShuttingDown || Plans.size() < Config.MaxQueuedPlans;
    });
    if (ShuttingDown) {
      Lock.unlock();
      S->sendError(0, "daemon is shutting down");
      return;
    }
    P->Id = NextPlanId++;
  }

  // PlanQueued must precede the first CellResult, and constructing the
  // PlanExecution can stream immediately (degenerate zero-trial cells).
  PlanQueuedMsg Queued;
  Queued.PlanId = P->Id;
  Queued.NumCells = P->Plan.cells().size();
  Queued.NumReplays = P->Plan.numReplays();
  S->send(MsgType::PlanQueued, encodePlanQueued(Queued));
  PlansSubmitted.fetch_add(1, std::memory_order_relaxed);

  const uint64_t PlanId = P->Id;
  std::shared_ptr<ServeSession> Owner = S;
  P->Exec = std::make_unique<PlanExecution>(
      P->Plan, Config.Traces,
      [this, Owner, PlanId](size_t CellIndex, const ResultSet::Cell &Cell) {
        CellResultMsg M;
        M.PlanId = PlanId;
        M.CellIndex = CellIndex;
        M.Key = Cell.Key;
        M.Runs = Cell.Runs;
        if (Owner->send(MsgType::CellResult, encodeCellResult(M)))
          CellsStreamed.fetch_add(1, std::memory_order_relaxed);
      });

  {
    std::lock_guard<std::mutex> Lock(Mu);
    if (ShuttingDown) {
      // The scheduler may already be gone; nothing will run this plan.
      PlanDoneMsg Done;
      Done.PlanId = PlanId;
      Done.Status = PlanStatus::Cancelled;
      S->send(MsgType::PlanDone, encodePlanDone(Done));
      PlansCancelled.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    Plans.emplace(PlanId, std::move(P));
  }
  SchedulerCv.notify_all();
}

void HaloDaemon::handleCancel(const std::shared_ptr<ServeSession> &S,
                              uint64_t PlanId) {
  std::lock_guard<std::mutex> Lock(Mu);
  auto It = Plans.find(PlanId);
  // An id we no longer know lost the race against completion -- the
  // client's PlanDone is already in flight. Another session's plan is not
  // this client's to cancel.
  if (It == Plans.end() || It->second->Owner.get() != S.get())
    return;
  It->second->Exec->cancel();
}

void HaloDaemon::cancelSessionPlansLocked(const ServeSession &S) {
  for (auto &Entry : Plans)
    if (Entry.second->Owner.get() == &S)
      Entry.second->Exec->cancel();
}

//===----------------------------------------------------------------------===//
// Scheduler
//===----------------------------------------------------------------------===//

void HaloDaemon::finalizeFinishedLocked() {
  for (auto It = Plans.begin(); It != Plans.end();) {
    PlanState &P = *It->second;
    if (!P.Exec->finished()) {
      ++It;
      continue;
    }
    if (!P.DoneSent) {
      PlanDoneMsg Done;
      Done.PlanId = P.Id;
      if (P.Exec->failed()) {
        Done.Status = PlanStatus::Failed;
        Done.Message = P.Exec->failureMessage();
        PlansFailed.fetch_add(1, std::memory_order_relaxed);
      } else if (P.Exec->cancelled()) {
        Done.Status = PlanStatus::Cancelled;
        PlansCancelled.fetch_add(1, std::memory_order_relaxed);
      } else {
        Done.Status = PlanStatus::Ok;
        PlansCompleted.fetch_add(1, std::memory_order_relaxed);
      }
      P.Owner->send(MsgType::PlanDone, encodePlanDone(Done));
      P.DoneSent = true;
    }
    It = Plans.erase(It);
  }
  QueueCv.notify_all();
}

void HaloDaemon::schedulerMain() {
  std::unique_lock<std::mutex> Lock(Mu);
  for (;;) {
    SchedulerCv.wait(Lock, [&] { return ShuttingDown || !Plans.empty(); });
    if (Plans.empty()) {
      if (ShuttingDown)
        return;
      continue;
    }

    // Assemble one bounded batch, visiting sessions round-robin and
    // claiming at most one task per session per rotation -- fairness is
    // per client, not per plan, so one client's queue depth does not buy
    // it pool share. Within a session, plans run in submission order
    // (the map iterates by ascending id).
    const size_t Cap = Config.MaxBatchTasks
                           ? Config.MaxBatchTasks
                           : 2 * static_cast<size_t>(Pool->workers());
    std::vector<std::pair<PlanExecution *, size_t>> Batch;
    bool Progress = true;
    while (Progress && Batch.size() < Cap && !Sessions.empty()) {
      Progress = false;
      for (size_t K = 0; K < Sessions.size() && Batch.size() < Cap; ++K) {
        ServeSession *Sess =
            Sessions[(RrCursor + K) % Sessions.size()].get();
        for (auto &Entry : Plans) {
          if (Entry.second->Owner.get() != Sess)
            continue;
          if (std::optional<size_t> T = Entry.second->Exec->next()) {
            Batch.emplace_back(Entry.second->Exec.get(), *T);
            Progress = true;
            break;
          }
        }
      }
    }
    if (!Sessions.empty())
      RrCursor = (RrCursor + 1) % Sessions.size();

    if (Batch.empty()) {
      // Nothing claimable and nothing in flight: every remaining plan is
      // finished (completed, cancelled, or failed). Finalize; if plans
      // somehow remain, wait rather than spin.
      finalizeFinishedLocked();
      if (!Plans.empty())
        SchedulerCv.wait(Lock);
      continue;
    }

    // Run the batch off-lock. Tasks from different plans (and different
    // stages of different plans) interleave freely; determinism holds
    // because every task's output is a function of its key alone. A
    // throwing task already marked its plan failed inside run() -- the
    // catch keeps one plan's failure from abandoning the batch's other
    // plans (which Executor's own exception path would do).
    Lock.unlock();
    Pool->parallelFor(Batch.size(), [&](size_t I) {
      try {
        Batch[I].first->run(Batch[I].second);
      } catch (...) {
      }
    });
    TasksExecuted.fetch_add(Batch.size(), std::memory_order_relaxed);
    Lock.lock();

    finalizeFinishedLocked();
  }
}
