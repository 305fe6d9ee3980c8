//===- hostbench/src/Serve.cpp - In-process daemon and closed-loop clients ===//
//
// Part of the HALO reproduction. Distributed under the BSD 3-clause licence.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Spans.h"

#include "serve/Client.h"

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <stdexcept>

#include <unistd.h>

using namespace halo;

namespace hostbench {

InProcessDaemon::InProcessDaemon(const std::string &SocketPath,
                                 const std::string &StoreDir, int Jobs)
    : Socket(SocketPath) {
  ::unlink(Socket.c_str());
  DaemonConfig Config;
  Config.SocketPath = Socket;
  Config.StoreDir = StoreDir;
  Config.Jobs = Jobs;
  Daemon = std::make_unique<HaloDaemon>(Config);
  auto Failed = std::make_shared<std::atomic<bool>>(false);
  Thread = std::thread([this, Failed] {
    try {
      Daemon->serve();
    } catch (const std::exception &E) {
      Error = E.what();
      Failed->store(true, std::memory_order_release);
    }
  });
  for (int I = 0; I < 1000; ++I) {
    if (Failed->load(std::memory_order_acquire))
      break;
    if (::access(Socket.c_str(), F_OK) == 0)
      return;
    ::usleep(5000);
  }
  stop();
  throw std::runtime_error("daemon did not start on " + Socket +
                           (Error.empty() ? "" : ": " + Error));
}

void InProcessDaemon::stop() {
  if (!Thread.joinable())
    return;
  Daemon->requestShutdown();
  Thread.join();
}

PassResult runServePass(const Inputs &In, const std::string &Socket) {
  size_t N = In.Clients.size();
  std::vector<std::vector<PlanSample>> Samples(N);
  std::vector<std::vector<ResultSet>> Served(N);
  std::mutex Mu;
  std::condition_variable Cv;
  size_t Ready = 0;
  bool Go = false;
  std::vector<std::thread> Threads;
  for (size_t C = 0; C < N; ++C)
    Threads.emplace_back([&, C] {
      std::optional<HaloClient> Client;
      std::string ConnectError;
      try {
        Client.emplace(Socket);
      } catch (const std::exception &E) {
        ConnectError = E.what();
      }
      {
        std::unique_lock<std::mutex> Lock(Mu);
        ++Ready;
        Cv.notify_all();
        Cv.wait(Lock, [&] { return Go; });
      }
      for (size_t Index : In.Clients[C]) {
        const PlanShape &Shape = In.Plans[Index];
        PlanSample S;
        S.Shape = Index;
        S.Big = Shape.Big;
        ResultSet R;
        ScopedSpan PlanSpan("serve.plan", newPlanId());
        double T0 = nowS();
        double First = -1.0;
        try {
          if (!Client)
            throw std::runtime_error("cannot connect: " + ConnectError);
          uint64_t Id;
          {
            ScopedSpan Submit("serve.submit");
            Id = Client->submit(Shape.Req);
          }
          S.AckS = nowS() - T0;
          ScopedSpan Wait("serve.wait");
          PlanOutcome O = Client->wait(Id, [&](const CellResultMsg &) {
            if (First < 0.0)
              First = nowS();
          });
          S.Ok = O.Status == PlanStatus::Ok && O.CellsReceived == O.NumCells;
          if (!S.Ok)
            S.Problem = "served plan ended " +
                        std::to_string(static_cast<int>(O.Status)) + ": " +
                        O.Message;
          R = std::move(O.Results);
        } catch (const std::exception &E) {
          S.Ok = false;
          S.Problem = E.what();
        }
        double T1 = nowS();
        S.WallS = T1 - T0;
        S.TtfcS = (First < 0.0 ? T1 : First) - T0;
        Samples[C].push_back(S);
        Served[C].push_back(std::move(R));
      }
    });

  {
    std::unique_lock<std::mutex> Lock(Mu);
    Cv.wait(Lock, [&] { return Ready == N; });
  }
  PassResult P;
  double T0 = nowS(), C0 = cpuSeconds();
  {
    std::lock_guard<std::mutex> Lock(Mu);
    Go = true;
  }
  Cv.notify_all();
  for (std::thread &T : Threads)
    T.join();
  P.WallS = nowS() - T0;
  P.CpuS = cpuSeconds() - C0;

  for (size_t C = 0; C < N; ++C)
    for (size_t I = 0; I < Samples[C].size(); ++I) {
      PlanSample &S = Samples[C][I];
      if (S.Ok) {
        S.Digest = resultDigest(Served[C][I]);
        P.Sim.add(Served[C][I]);
      }
      P.Plans.push_back(S);
    }
  return P;
}

} // namespace hostbench
