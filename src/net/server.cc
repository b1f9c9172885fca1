#include "net/server.h"

#include "rank/corpus_stats.h"

#include <cstring>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <utility>
#include <vector>

namespace sgmlqdb::net {

namespace {

size_t RowsOf(const Result<om::Value>& r) {
  if (!r.ok()) return 0;
  om::ValueKind kind = r->kind();
  if (kind == om::ValueKind::kSet || kind == om::ValueKind::kList) {
    return r->size();
  }
  return 1;
}

uint64_t MicrosSince(std::chrono::steady_clock::time_point start) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
}

constexpr std::string_view kJsonType = "application/json";

}  // namespace

ServerStats::Snapshot ServerStats::Get() const {
  Snapshot s;
  s.accepted = accepted.load();
  s.over_capacity = over_capacity.load();
  s.active = active.load();
  s.http_requests = http_requests.load();
  s.binary_requests = binary_requests.load();
  s.malformed = malformed.load();
  s.busy_rejections = busy_rejections.load();
  s.cancelled_on_disconnect = cancelled_on_disconnect.load();
  s.read_pauses = read_pauses.load();
  s.bytes_in = bytes_in.load();
  s.bytes_out = bytes_out.load();
  return s;
}

Server::Connection::Connection(uint64_t id, Fd sock, Proto proto,
                               ServerOptions const& opt)
    : id(id),
      sock(std::move(sock)),
      proto(proto),
      http_parser(HttpRequestParser::Limits{opt.max_header_bytes,
                                            opt.max_body_bytes}),
      frame_parser(opt.max_frame_bytes) {}

Server::Server(service::QueryService& service, const ServerOptions& options)
    : service_(&service), options_(options) {}

Server::Server(const ServerOptions& options) : options_(options) {}

Server::~Server() { Stop(); }

void Server::AttachService(service::QueryService& service) {
  service_.store(&service);
}

Status Server::Start() {
  if (started_) return Status::InvalidArgument("server already started");
  SGMLQDB_RETURN_IF_ERROR(loop_.Init());
  SGMLQDB_ASSIGN_OR_RETURN(
      http_listen_, ListenTcp(options_.bind_addr, options_.http_port));
  SGMLQDB_ASSIGN_OR_RETURN(
      binary_listen_, ListenTcp(options_.bind_addr, options_.binary_port));
  SGMLQDB_ASSIGN_OR_RETURN(http_port_, LocalPort(http_listen_.get()));
  SGMLQDB_ASSIGN_OR_RETURN(binary_port_, LocalPort(binary_listen_.get()));
  SGMLQDB_RETURN_IF_ERROR(
      loop_.Add(http_listen_.get(), EPOLLIN, [this](uint32_t) {
        OnAccept(http_listen_.get(), Proto::kHttp);
      }));
  SGMLQDB_RETURN_IF_ERROR(
      loop_.Add(binary_listen_.get(), EPOLLIN, [this](uint32_t) {
        OnAccept(binary_listen_.get(), Proto::kBinary);
      }));
  loop_thread_ = std::thread([this] { loop_.Run(); });
  ingest_thread_ = std::thread([this] { IngestLoop(); });
  started_ = true;
  return Status::OK();
}

void Server::Stop() {
  if (!started_ || stopped_) return;
  stopped_ = true;
  // The ingest writer drains first, while the epoll loop is still
  // alive: every queued batch applies, fsyncs its WAL records and has
  // its ack posted back to the loop before any connection is torn
  // down. Shutting the loop down first would destroy connections out
  // from under accepted-but-unanswered batches.
  {
    std::lock_guard<std::mutex> lock(ingest_mu_);
    ingest_stop_ = true;
  }
  ingest_cv_.notify_all();
  if (ingest_thread_.joinable()) ingest_thread_.join();
  // The close runs on the loop thread (in Run()'s final posted-task
  // drain if the loop already observed stop) so connection state is
  // never touched concurrently.
  loop_.Post([this] { CloseAll(); });
  loop_.Stop();
  if (loop_thread_.joinable()) loop_thread_.join();
  // Every in-flight statement was cancelled by CloseAll; wait for the
  // worker-side completions to finish touching this object.
  {
    std::unique_lock<std::mutex> lock(pending_mu_);
    pending_cv_.wait(lock,
                     [this] { return pending_callbacks_.load() == 0; });
  }
}

void Server::CloseAll() {
  std::vector<uint64_t> ids;
  ids.reserve(connections_.size());
  for (const auto& [id, c] : connections_) ids.push_back(id);
  for (uint64_t id : ids) DestroyConnection(id);
  if (http_listen_.valid()) {
    (void)loop_.Del(http_listen_.get());
    http_listen_.Close();
  }
  if (binary_listen_.valid()) {
    (void)loop_.Del(binary_listen_.get());
    binary_listen_.Close();
  }
}

void Server::OnAccept(int listen_fd, Proto proto) {
  while (true) {
    int fd = ::accept4(listen_fd, nullptr, nullptr,
                       SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      return;  // transient (ECONNABORTED, EMFILE): try again next wakeup
    }
    Fd sock(fd);
    if (connections_.size() >= options_.max_connections) {
      stats_.over_capacity.fetch_add(1);
      continue;  // RAII close: shed load at the door
    }
    (void)SetNoDelay(sock.get());
    const uint64_t id = next_conn_id_++;
    auto conn =
        std::make_unique<Connection>(id, std::move(sock), proto, options_);
    conn->events = EPOLLIN;
    Status st = loop_.Add(conn->sock.get(), EPOLLIN,
                          [this, id](uint32_t events) {
                            OnConnEvent(id, events);
                          });
    if (!st.ok()) continue;
    stats_.accepted.fetch_add(1);
    stats_.active.fetch_add(1);
    connections_.emplace(id, std::move(conn));
  }
}

void Server::OnConnEvent(uint64_t conn_id, uint32_t events) {
  auto it = connections_.find(conn_id);
  if (it == connections_.end()) return;
  Connection& c = *it->second;
  if (events & (EPOLLHUP | EPOLLERR | EPOLLRDHUP)) {
    // Peer is gone (or half-closed — this server does not serve
    // half-closed clients): cancel whatever it had in flight.
    DestroyConnection(conn_id);
    return;
  }
  if (events & EPOLLOUT) {
    if (!FlushOutput(c)) return;
  }
  if (events & EPOLLIN) HandleReadable(c);
}

void Server::HandleReadable(Connection& c) {
  const uint64_t conn_id = c.id;
  char buf[65536];
  while (true) {
    ssize_t n = ::read(c.sock.get(), buf, sizeof(buf));
    if (n > 0) {
      stats_.bytes_in.fetch_add(static_cast<uint64_t>(n));
      std::string_view data(buf, static_cast<size_t>(n));
      if (c.proto == Proto::kHttp) {
        c.http_parser.Append(data);
      } else {
        c.frame_parser.Append(data);
      }
      continue;
    }
    if (n == 0) {
      DestroyConnection(conn_id);
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    DestroyConnection(conn_id);
    return;
  }
  if (c.proto == Proto::kHttp) {
    ProcessHttp(c);
  } else {
    ProcessBinary(c);
  }
  if (connections_.find(conn_id) == connections_.end()) return;
  UpdateInterest(c);
}

void Server::ProcessHttp(Connection& c) {
  while (!c.http_busy && !c.close_after_flush) {
    HttpRequest req;
    HttpRequestParser::Outcome oc = c.http_parser.Next(&req);
    if (oc == HttpRequestParser::Outcome::kNeedMore) break;
    if (oc == HttpRequestParser::Outcome::kError) {
      stats_.malformed.fetch_add(1);
      const int status = c.http_parser.http_status();
      if (!QueueHttpResponse(
              c, status, kJsonType,
              FormatErrorJson(
                  Status::InvalidArgument(c.http_parser.error())),
              /*keep_alive=*/false)) {
        return;
      }
      c.close_after_flush = true;
      break;
    }
    stats_.http_requests.fetch_add(1);
    if (!DispatchHttp(c, std::move(req))) return;
  }
}

bool Server::DispatchHttp(Connection& c, HttpRequest req) {
  std::string_view path = req.Path();
  ResponseCtx ctx;
  ctx.proto = Proto::kHttp;
  ctx.keep_alive = req.keep_alive;
  ctx.start = std::chrono::steady_clock::now();
  // Route on path first so a known endpoint hit with the wrong
  // method answers 405, not 404.
  const bool get_endpoint = path == "/healthz" || path == "/stats";
  const bool post_endpoint = path == "/query" || path == "/ingest";
  if ((get_endpoint && req.method != "GET") ||
      (post_endpoint && req.method != "POST")) {
    return QueueHttpResponse(
        c, 405, kJsonType,
        FormatErrorJson(Status::InvalidArgument("method not allowed: " +
                                                req.method)),
        req.keep_alive);
  }
  // Liveness vs readiness: an unattached server is alive (it answers)
  // but not ready (startup recovery is still replaying the WAL); load
  // balancers read the 503 as "don't route here yet".
  const bool ready = service_.load() != nullptr;
  if (path == "/healthz") {
    if (!ready) {
      return QueueHttpResponse(c, 503, "text/plain", "recovering\n",
                               req.keep_alive);
    }
    return QueueHttpResponse(c, 200, "text/plain", "ok\n", req.keep_alive);
  }
  if (path == "/stats") {
    return QueueHttpResponse(c, 200, kJsonType, StatsJson(),
                             req.keep_alive);
  }
  if (!ready && post_endpoint) {
    return QueueHttpResponse(
        c, 503, kJsonType,
        FormatErrorJson(Status::Unavailable(
            "recovering: durable state is still being replayed")),
        req.keep_alive);
  }
  if (path == "/query") {
    Result<QueryRequest> parsed = ParseQueryRequestJson(req.body);
    if (!parsed.ok()) {
      stats_.malformed.fetch_add(1);
      return QueueHttpResponse(c, 400, kJsonType,
                               FormatErrorJson(parsed.status()),
                               req.keep_alive);
    }
    c.http_busy = true;
    SubmitQuery(c, std::move(parsed).value(), ctx);
    return true;
  }
  if (path == "/ingest") {
    Result<IngestRequest> parsed = ParseIngestRequestJson(req.body);
    if (!parsed.ok()) {
      stats_.malformed.fetch_add(1);
      return QueueHttpResponse(c, 400, kJsonType,
                               FormatErrorJson(parsed.status()),
                               req.keep_alive);
    }
    c.http_busy = true;
    c.inflight += 1;
    {
      std::lock_guard<std::mutex> lock(ingest_mu_);
      ingest_queue_.push_back(
          IngestJob{c.id, ctx, std::move(parsed).value()});
    }
    ingest_cv_.notify_one();
    return true;
  }
  return QueueHttpResponse(
      c, 404, kJsonType,
      FormatErrorJson(Status::NotFound("no such endpoint: " +
                                       std::string(path))),
      req.keep_alive);
}

void Server::ProcessBinary(Connection& c) {
  while (c.inflight < options_.max_inflight_per_conn &&
         !c.close_after_flush) {
    Frame frame;
    FrameParser::Outcome oc = c.frame_parser.Next(&frame);
    if (oc == FrameParser::Outcome::kNeedMore) break;
    if (oc == FrameParser::Outcome::kError) {
      stats_.malformed.fetch_add(1);
      std::string reply = EncodeFrame(
          Opcode::kReply, 0,
          EncodeReplyBody(Status::InvalidArgument(c.frame_parser.error()), 0,
                          ""));
      // Set before queueing: QueueOutput may drain the buffer
      // immediately, and the flush is what closes the connection.
      c.close_after_flush = true;
      QueueOutput(c, reply);
      return;
    }
    stats_.binary_requests.fetch_add(1);
    if (!HandleBinaryFrame(c, frame)) return;
  }
}

bool Server::HandleBinaryFrame(Connection& c, const Frame& frame) {
  ResponseCtx ctx;
  ctx.proto = Proto::kBinary;
  ctx.req_id = frame.req_id;
  ctx.start = std::chrono::steady_clock::now();
  auto error_reply = [&](const Status& status) {
    stats_.malformed.fetch_add(1);
    return QueueOutput(c, EncodeFrame(Opcode::kReply, frame.req_id,
                                      EncodeReplyBody(status, 0, "")));
  };
  switch (static_cast<Opcode>(frame.opcode)) {
    case Opcode::kPing:
      return QueueOutput(c, EncodeFrame(Opcode::kReply, frame.req_id,
                                        EncodeReplyBody(Status::OK(), 0,
                                                        "")));
    case Opcode::kQuery: {
      Result<QueryRequest> req = DecodeQueryBody(frame.body);
      if (!req.ok()) return error_reply(req.status());
      SubmitQuery(c, std::move(req).value(), ctx);
      return true;
    }
    case Opcode::kPrepare: {
      Result<PrepareBody> body = DecodePrepareBody(frame.body);
      if (!body.ok()) return error_reply(body.status());
      if (c.prepared.size() >= options_.max_prepared_per_conn &&
          c.prepared.find(body->stmt_id) == c.prepared.end()) {
        return QueueOutput(
            c, EncodeFrame(
                   Opcode::kReply, frame.req_id,
                   EncodeReplyBody(
                       Status::ResourceExhausted(
                           "prepared-statement limit (" +
                           std::to_string(options_.max_prepared_per_conn) +
                           ") reached on this connection"),
                       0, "")));
      }
      c.prepared[body->stmt_id] = std::move(body->req);
      return QueueOutput(c, EncodeFrame(Opcode::kReply, frame.req_id,
                                        EncodeReplyBody(Status::OK(), 0,
                                                        "")));
    }
    case Opcode::kExecute: {
      Result<ExecuteBody> body = DecodeExecuteBody(frame.body);
      if (!body.ok()) return error_reply(body.status());
      auto it = c.prepared.find(body->stmt_id);
      if (it == c.prepared.end()) {
        return QueueOutput(
            c, EncodeFrame(Opcode::kReply, frame.req_id,
                           EncodeReplyBody(
                               Status::NotFound(
                                   "no prepared statement with id " +
                                   std::to_string(body->stmt_id)),
                               0, "")));
      }
      QueryRequest req = it->second;  // copy: the entry stays prepared
      if (body->timeout_ms != 0) req.options.timeout_ms = body->timeout_ms;
      SubmitQuery(c, std::move(req), ctx);
      return true;
    }
    default:
      // Unknown opcode: the stream is from a confused peer; answer
      // once and close. The flag must be set before queueing — the
      // flush that drains the reply is what closes the connection.
      c.close_after_flush = true;
      return error_reply(Status::InvalidArgument(
          "unknown opcode " + std::to_string(frame.opcode)));
  }
}

void Server::SubmitQuery(Connection& c, QueryRequest req, ResponseCtx ctx) {
  if (req.options.timeout_ms == 0) {
    req.options.timeout_ms = options_.default_timeout_ms;
  }
  c.inflight += 1;
  const uint64_t conn_id = c.id;
  service::QueryService* svc = service_.load();
  if (svc == nullptr) {  // binary clients racing startup recovery
    loop_.Post([this, conn_id, ctx] {
      OnQueryDone(conn_id, 0, ctx,
                  Status::Unavailable(
                      "recovering: durable state is still being replayed"));
    });
    return;
  }
  pending_callbacks_.fetch_add(1);
  uint64_t query_id = svc->SubmitAsync(
      std::move(req.query), req.options,
      [this, conn_id, ctx](uint64_t id, Result<om::Value> result) {
        // Worker thread (or inline on rejection): hop back to the
        // loop thread, which owns the connection.
        auto boxed = std::make_shared<Result<om::Value>>(std::move(result));
        loop_.Post([this, conn_id, id, ctx, boxed] {
          OnQueryDone(conn_id, id, ctx, std::move(*boxed));
        });
        if (pending_callbacks_.fetch_sub(1) == 1) {
          std::lock_guard<std::mutex> lock(pending_mu_);
          pending_cv_.notify_all();
        }
      });
  // The completion cannot run before this line: even an inline
  // rejection only *posts* OnQueryDone, and posted tasks run after
  // the current loop callback returns.
  if (query_id != 0) c.inflight_queries.insert(query_id);
}

void Server::OnQueryDone(uint64_t conn_id, uint64_t query_id,
                         ResponseCtx ctx, Result<om::Value> result) {
  auto it = connections_.find(conn_id);
  if (it == connections_.end()) return;  // client left; already cancelled
  Connection& c = *it->second;
  if (query_id != 0) c.inflight_queries.erase(query_id);
  if (c.inflight > 0) c.inflight -= 1;
  if (!result.ok() &&
      result.status().code() == StatusCode::kUnavailable) {
    stats_.busy_rejections.fetch_add(1);
  }
  if (ctx.proto == Proto::kBinary) {
    std::string body =
        result.ok()
            ? EncodeReplyBody(Status::OK(), RowsOf(result),
                              result->ToString())
            : EncodeReplyBody(result.status(), 0, "");
    if (!QueueOutput(c, EncodeFrame(Opcode::kReply, ctx.req_id, body))) {
      return;
    }
  } else {
    bool alive;
    if (result.ok()) {
      alive = QueueHttpResponse(
          c, 200, kJsonType,
          FormatQueryResultJson(RowsOf(result), MicrosSince(ctx.start),
                               result->ToString()),
          ctx.keep_alive);
    } else {
      alive = QueueHttpResponse(c, HttpStatusFor(result.status().code()),
                                kJsonType, FormatErrorJson(result.status()),
                                ctx.keep_alive);
    }
    if (!alive) return;
    c.http_busy = false;
    ProcessHttp(c);
    if (connections_.find(conn_id) == connections_.end()) return;
  }
  UpdateInterest(c);
}

void Server::OnIngestDone(uint64_t conn_id, ResponseCtx ctx,
                          Result<uint64_t> epoch) {
  auto it = connections_.find(conn_id);
  if (it == connections_.end()) return;
  Connection& c = *it->second;
  if (c.inflight > 0) c.inflight -= 1;
  bool alive;
  if (epoch.ok()) {
    alive = QueueHttpResponse(
        c, 200, kJsonType,
        "{\"ok\":true,\"epoch\":" + std::to_string(*epoch) +
            ",\"micros\":" + std::to_string(MicrosSince(ctx.start)) + "}",
        ctx.keep_alive);
  } else {
    if (epoch.status().code() == StatusCode::kUnavailable) {
      stats_.busy_rejections.fetch_add(1);
    }
    alive = QueueHttpResponse(c, HttpStatusFor(epoch.status().code()),
                              kJsonType, FormatErrorJson(epoch.status()),
                              ctx.keep_alive);
  }
  if (!alive) return;
  c.http_busy = false;
  ProcessHttp(c);
  if (connections_.find(conn_id) == connections_.end()) return;
  UpdateInterest(c);
}

void Server::IngestLoop() {
  while (true) {
    IngestJob job;
    {
      std::unique_lock<std::mutex> lock(ingest_mu_);
      ingest_cv_.wait(lock, [this] {
        return ingest_stop_ || !ingest_queue_.empty();
      });
      // Stop means drain, not drop: an accepted batch is a promise.
      if (ingest_queue_.empty()) return;
      job = std::move(ingest_queue_.front());
      ingest_queue_.pop_front();
    }
    service::QueryService* svc = service_.load();
    Result<uint64_t> epoch =
        svc == nullptr
            ? Result<uint64_t>(Status::Unavailable(
                  "recovering: durable state is still being replayed"))
            : svc->Ingest(job.req.ops);
    auto boxed = std::make_shared<Result<uint64_t>>(std::move(epoch));
    const uint64_t conn_id = job.conn_id;
    const ResponseCtx ctx = job.ctx;
    loop_.Post([this, conn_id, ctx, boxed] {
      OnIngestDone(conn_id, ctx, std::move(*boxed));
    });
  }
}

bool Server::QueueHttpResponse(Connection& c, int status,
                               std::string_view content_type,
                               std::string_view body, bool keep_alive) {
  if (!keep_alive) c.close_after_flush = true;
  return QueueOutput(
      c, FormatHttpResponse(status, HttpReasonPhrase(status), content_type,
                            body, keep_alive));
}

bool Server::QueueOutput(Connection& c, std::string_view bytes) {
  c.out.append(bytes.data(), bytes.size());
  return FlushOutput(c);
}

bool Server::FlushOutput(Connection& c) {
  const uint64_t conn_id = c.id;
  while (c.out_off < c.out.size()) {
    ssize_t n = ::send(c.sock.get(), c.out.data() + c.out_off,
                       c.out.size() - c.out_off, MSG_NOSIGNAL);
    if (n > 0) {
      stats_.bytes_out.fetch_add(static_cast<uint64_t>(n));
      c.out_off += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    DestroyConnection(conn_id);
    return false;
  }
  if (c.out_off >= c.out.size()) {
    c.out.clear();
    c.out_off = 0;
    if (c.close_after_flush) {
      DestroyConnection(conn_id);
      return false;
    }
  } else if (c.out_off > 65536) {
    c.out.erase(0, c.out_off);
    c.out_off = 0;
  }
  UpdateInterest(c);
  return true;
}

void Server::UpdateInterest(Connection& c) {
  bool want_read;
  if (c.close_after_flush) {
    want_read = false;
  } else if (c.out_pending() >= options_.max_output_buffer_bytes) {
    want_read = false;  // slow reader: stop buffering for it
  } else if (c.proto == Proto::kHttp) {
    want_read = !c.http_busy;
  } else {
    want_read = c.inflight < options_.max_inflight_per_conn;
  }
  uint32_t events = 0;
  if (want_read) events |= EPOLLIN;
  if (c.out_pending() > 0) events |= EPOLLOUT;
  if (events == c.events) return;
  if ((c.events & EPOLLIN) != 0 && (events & EPOLLIN) == 0) {
    stats_.read_pauses.fetch_add(1);
  }
  if (loop_.Mod(c.sock.get(), events).ok()) c.events = events;
}

void Server::DestroyConnection(uint64_t conn_id) {
  auto it = connections_.find(conn_id);
  if (it == connections_.end()) return;
  std::unique_ptr<Connection> c = std::move(it->second);
  connections_.erase(it);
  service::QueryService* svc = service_.load();
  for (uint64_t qid : c->inflight_queries) {
    if (svc != nullptr && svc->Cancel(qid).ok()) {
      stats_.cancelled_on_disconnect.fetch_add(1);
    }
  }
  (void)loop_.Del(c->sock.get());
  stats_.active.fetch_sub(1);
}

std::string Server::StatsJson() const {
  const ServerStats::Snapshot s = stats_.Get();
  const service::QueryService* svc = service_.load();
  if (svc == nullptr) {
    // Startup recovery is still replaying: the store-side taxonomy
    // does not exist yet, so report only the IO layer and the state.
    return "{\"recovering\":true,\"server\":{\"accepted\":" +
           std::to_string(s.accepted) +
           ",\"active\":" + std::to_string(s.active) + "}}";
  }
  const service::ServiceStats& q = svc->stats();
  std::string out = "{\"server\":{";
  out += "\"accepted\":" + std::to_string(s.accepted);
  out += ",\"active\":" + std::to_string(s.active);
  out += ",\"over_capacity\":" + std::to_string(s.over_capacity);
  out += ",\"http_requests\":" + std::to_string(s.http_requests);
  out += ",\"binary_requests\":" + std::to_string(s.binary_requests);
  out += ",\"malformed\":" + std::to_string(s.malformed);
  out += ",\"busy_rejections\":" + std::to_string(s.busy_rejections);
  out += ",\"cancelled_on_disconnect\":" +
         std::to_string(s.cancelled_on_disconnect);
  out += ",\"read_pauses\":" + std::to_string(s.read_pauses);
  out += ",\"bytes_in\":" + std::to_string(s.bytes_in);
  out += ",\"bytes_out\":" + std::to_string(s.bytes_out);
  out += "},\"service\":{";
  out += "\"executions\":" + std::to_string(q.total_executions());
  out += ",\"errors\":" + std::to_string(q.total_errors());
  out += ",\"rejected\":" + std::to_string(q.total_rejected());
  out += ",\"cache_hits\":" + std::to_string(q.total_cache_hits());
  out += ",\"cache_misses\":" + std::to_string(q.total_cache_misses());
  out += ",\"deadline_exceeded\":" +
         std::to_string(q.total_deadline_exceeded());
  out += ",\"cancelled\":" + std::to_string(q.total_cancelled());
  out += ",\"resource_exhausted\":" +
         std::to_string(q.total_resource_exhausted());
  out += ",\"degraded\":" + std::to_string(q.total_degraded());
  out += ",\"inflight\":" + std::to_string(svc->inflight());
  const ShardedStore& sharded = svc->sharded_store();
  out += "},\"store\":{";
  out += "\"epoch\":" + std::to_string(svc->store().epoch());
  out += ",\"version\":" + std::to_string(sharded.snapshot()->version);
  out += ",\"shards\":" + std::to_string(sharded.shard_count());
  out += ",\"documents\":" + std::to_string(sharded.document_count());
  // Per-shard footprint: placement balance and index size at a glance.
  out += ",\"per_shard\":[";
  for (size_t i = 0; i < sharded.shard_count(); ++i) {
    const DocumentStore& shard = sharded.shard(i);
    const text::InvertedIndex& sidx = shard.text_index();
    if (i > 0) out += ",";
    out += "{\"epoch\":" + std::to_string(shard.epoch());
    out += ",\"documents\":" + std::to_string(shard.document_count());
    out += ",\"index_terms\":" + std::to_string(sidx.term_count());
    out += ",\"index_units\":" + std::to_string(sidx.unit_count());
    out += ",\"index_bytes\":" + std::to_string(sidx.ApproximateBytes());
    out += "}";
  }
  out += "]";
  // The text-index block aggregates across shards (it was the whole
  // store's index before sharding; the sums keep it comparable).
  uint64_t terms = 0, units = 0, comp_bytes = 0, flat_bytes = 0;
  text::IndexProbeStats p;
  text::IndexMaintenanceStats m;
  for (size_t i = 0; i < sharded.shard_count(); ++i) {
    const text::InvertedIndex& idx = sharded.shard(i).text_index();
    terms += idx.term_count();
    units += idx.unit_count();
    comp_bytes += idx.ApproximateBytes();
    flat_bytes += idx.FlatApproximateBytes();
    const text::IndexProbeStats sp = idx.probe_stats();
    p.probes += sp.probes;
    p.blocks_decoded += sp.blocks_decoded;
    p.blocks_skipped += sp.blocks_skipped;
    p.postings_decoded += sp.postings_decoded;
    p.postings_skipped += sp.postings_skipped;
    const text::IndexMaintenanceStats& sm = idx.maintenance_stats();
    m.units_added += sm.units_added;
    m.units_removed += sm.units_removed;
    m.term_copies += sm.term_copies;
    m.postings_rewritten += sm.postings_rewritten;
  }
  out += "},\"text_index\":{";
  out += "\"terms\":" + std::to_string(terms);
  out += ",\"units\":" + std::to_string(units);
  out += ",\"compressed_bytes\":" + std::to_string(comp_bytes);
  out += ",\"flat_bytes\":" + std::to_string(flat_bytes);
  out += ",\"probes\":" + std::to_string(p.probes);
  out += ",\"blocks_decoded\":" + std::to_string(p.blocks_decoded);
  out += ",\"blocks_skipped\":" + std::to_string(p.blocks_skipped);
  out += ",\"postings_decoded\":" + std::to_string(p.postings_decoded);
  out += ",\"postings_skipped\":" + std::to_string(p.postings_skipped);
  out += ",\"units_added\":" + std::to_string(m.units_added);
  out += ",\"units_removed\":" + std::to_string(m.units_removed);
  out += ",\"term_copies\":" + std::to_string(m.term_copies);
  out += ",\"postings_rewritten\":" + std::to_string(m.postings_rewritten);
  out += "}";
  // Ranked retrieval: the BM25 corpus statistics and top-k execution
  // counters, summed across shards like the text-index block (the
  // global scoring context the service builds is exactly these sums).
  uint64_t rank_docs = 0, rank_tokens = 0, rank_df_terms = 0;
  rank::RankMaintenanceStats rm;
  rank::RankProbeStats rp;
  for (size_t i = 0; i < sharded.shard_count(); ++i) {
    const rank::CorpusStats& rs = sharded.shard(i).rank_stats();
    rank_docs += rs.doc_count();
    rank_tokens += rs.total_tokens();
    rank_df_terms += rs.df_term_count();
    const rank::RankMaintenanceStats& sm2 = rs.maintenance_stats();
    rm.docs_added += sm2.docs_added;
    rm.docs_removed += sm2.docs_removed;
    rm.tokens_added += sm2.tokens_added;
    rm.tokens_removed += sm2.tokens_removed;
    rm.df_updates += sm2.df_updates;
    const rank::RankProbeStats sp2 = rs.probe_stats();
    rp.rank_queries += sp2.rank_queries;
    rp.docs_scored += sp2.docs_scored;
    rp.heap_pushes += sp2.heap_pushes;
    rp.max_heap_size = std::max(rp.max_heap_size, sp2.max_heap_size);
    rp.postings_decoded += sp2.postings_decoded;
    rp.postings_skipped += sp2.postings_skipped;
  }
  const double avg_len =
      rank_docs == 0 ? 0.0
                     : static_cast<double>(rank_tokens) /
                           static_cast<double>(rank_docs);
  out += ",\"rank\":{";
  out += "\"documents\":" + std::to_string(rank_docs);
  out += ",\"total_tokens\":" + std::to_string(rank_tokens);
  out += ",\"avg_field_length\":" + std::to_string(avg_len);
  out += ",\"df_terms\":" + std::to_string(rank_df_terms);
  out += ",\"docs_added\":" + std::to_string(rm.docs_added);
  out += ",\"docs_removed\":" + std::to_string(rm.docs_removed);
  out += ",\"tokens_added\":" + std::to_string(rm.tokens_added);
  out += ",\"tokens_removed\":" + std::to_string(rm.tokens_removed);
  out += ",\"df_updates\":" + std::to_string(rm.df_updates);
  out += ",\"rank_queries\":" + std::to_string(rp.rank_queries);
  out += ",\"docs_scored\":" + std::to_string(rp.docs_scored);
  out += ",\"heap_pushes\":" + std::to_string(rp.heap_pushes);
  out += ",\"max_heap_size\":" + std::to_string(rp.max_heap_size);
  out += ",\"postings_decoded\":" + std::to_string(rp.postings_decoded);
  out += ",\"postings_skipped\":" + std::to_string(rp.postings_skipped);
  out += "}";
  // Durability: what startup recovery found/replayed, plus the live
  // write-side counters. Present only when the store has a WAL.
  if (const wal::Manager* w = sharded.wal(); w != nullptr) {
    const wal::RecoveryStats& r = w->recovery_stats();
    const wal::WalStats ws = w->stats();
    out += ",\"durability\":{";
    out += "\"recovered\":" + std::string(r.recovered ? "true" : "false");
    out += ",\"wal_epochs_replayed\":" +
           std::to_string(r.wal_batches_replayed);
    out += ",\"checkpoint_epoch\":" + std::to_string(r.checkpoint_epoch);
    out += ",\"recovery_ms\":" + std::to_string(r.recovery_ms);
    out += ",\"torn_records_truncated\":" +
           std::to_string(r.torn_records_truncated);
    out += ",\"docs_recovered\":" + std::to_string(r.docs_recovered);
    out += ",\"batches_logged\":" + std::to_string(ws.batches_logged);
    out += ",\"records_appended\":" + std::to_string(ws.records_appended);
    out += ",\"syncs\":" + std::to_string(ws.syncs);
    out += ",\"wal_bytes\":" + std::to_string(ws.wal_bytes);
    out += ",\"checkpoints_written\":" +
           std::to_string(ws.checkpoints_written);
    out += ",\"last_checkpoint_batch_seq\":" +
           std::to_string(ws.last_checkpoint_batch_seq);
    out += ",\"checkpoint_bytes\":" + std::to_string(ws.checkpoint_bytes);
    out += ",\"durable_sync\":" +
           std::string(ws.durable_sync ? "true" : "false");
    out += ",\"poisoned\":" + std::string(ws.poisoned ? "true" : "false");
    out += "}";
  }
  out += "}";
  return out;
}

}  // namespace sgmlqdb::net
