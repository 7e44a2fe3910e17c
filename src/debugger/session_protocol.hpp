// Wire protocol between ddbg clients and the control-socket session
// server (session_server.hpp).
//
// Transport: the same length-prefixed frames as the runtime's data plane
// (net/framing.hpp) over a dedicated control TCP connection — one frame
// per request, one frame per response, strictly request/response in
// order.  Bodies are encoded with ByteWriter/ByteReader, and structured
// payloads (process snapshots in state/inspect responses) reuse the exact
// ProcessSnapshot wire encoding the Command convergecast path uses, so a
// programmatic client decodes the same bytes the aggregator tier ships.
//
//   request  := req_id:u64  op:u8  text:str  number:i64
//   response := req_id:u64  status:u8  text:str  number:i64  payload:bytes
//
// `status` is 0 for success, otherwise 1 + ErrorCode (common/result.hpp).
// Both decoders reject an out-of-range op or status and trailing bytes.
// `text` is the human-readable rendering the CLI prints verbatim; `number`
// and `payload` carry op-specific machine-readable results (see SessionOp).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>

#include "common/result.hpp"
#include "common/serialization.hpp"

namespace ddbg {

enum class SessionOp : std::uint8_t {
  kHello = 0,     // text: client name   -> text: banner, number: session id
  kBreak = 1,     // text: expression    -> number: breakpoint id
  kClear = 2,     // number: breakpoint  -> (ack)
  kHalt = 3,      //                     -> number: wave id
  kState = 4,     //                     -> payload: snapshots of latest S_h
  kSnapshot = 5,  //                     -> payload: snapshots of latest S_r
  kInspect = 6,   // number: process id  -> payload: one ProcessSnapshot
  kDeadlock = 7,  //                     -> number: 1 if deadlocked else 0
  kHits = 8,      //                     -> number: breakpoint hit count
  kMetrics = 9,   //                     -> text: ddbg.metrics.v1 JSON
  kResume = 10,   //                     -> (ack)
  kQuit = 11,     //                     -> (ack; server closes the session)
  kReplay = 12,   // text: replay command ("load <path>" | "run" | "back" |
                  // "cut <k>" | "status") -> text: report (src/replay)
};

inline constexpr std::uint8_t kMaxSessionOp =
    static_cast<std::uint8_t>(SessionOp::kReplay);
inline constexpr std::uint8_t kMaxSessionStatus =
    1 + static_cast<std::uint8_t>(ErrorCode::kInternal);

struct SessionRequest {
  std::uint64_t req_id = 0;
  SessionOp op = SessionOp::kHello;
  std::string text;
  std::int64_t number = 0;

  void encode(ByteWriter& writer) const {
    writer.u64(req_id);
    writer.u8(static_cast<std::uint8_t>(op));
    writer.str(text);
    writer.i64(number);
  }

  [[nodiscard]] static Result<SessionRequest> decode(
      std::span<const std::uint8_t> body) {
    ByteReader reader(body);
    SessionRequest req;
    auto id = reader.u64();
    if (!id.ok()) return id.error();
    req.req_id = id.value();
    auto op = reader.u8();
    if (!op.ok()) return op.error();
    if (op.value() > kMaxSessionOp) {
      return Error(ErrorCode::kParseError,
                   "unknown session op " + std::to_string(op.value()));
    }
    req.op = static_cast<SessionOp>(op.value());
    auto text = reader.str();
    if (!text.ok()) return text.error();
    req.text = std::move(text).value();
    auto number = reader.i64();
    if (!number.ok()) return number.error();
    req.number = number.value();
    if (!reader.exhausted()) {
      return Error(ErrorCode::kParseError, "trailing bytes after request");
    }
    return req;
  }
};

struct SessionResponse {
  std::uint64_t req_id = 0;
  std::uint8_t status = 0;  // 0 = ok, else 1 + ErrorCode
  std::string text;
  std::int64_t number = 0;
  Bytes payload;

  [[nodiscard]] bool ok() const { return status == 0; }
  [[nodiscard]] std::optional<ErrorCode> error_code() const {
    if (status == 0) return std::nullopt;
    return static_cast<ErrorCode>(status - 1);
  }

  [[nodiscard]] static SessionResponse success(std::uint64_t req_id,
                                               std::string text,
                                               std::int64_t number = 0,
                                               Bytes payload = {}) {
    SessionResponse resp;
    resp.req_id = req_id;
    resp.text = std::move(text);
    resp.number = number;
    resp.payload = std::move(payload);
    return resp;
  }

  [[nodiscard]] static SessionResponse failure(std::uint64_t req_id,
                                               const Error& error) {
    SessionResponse resp;
    resp.req_id = req_id;
    resp.status = static_cast<std::uint8_t>(error.code()) + 1;
    resp.text = error.message();
    return resp;
  }

  void encode(ByteWriter& writer) const {
    writer.u64(req_id);
    writer.u8(status);
    writer.str(text);
    writer.i64(number);
    writer.bytes(payload);
  }

  [[nodiscard]] static Result<SessionResponse> decode(
      std::span<const std::uint8_t> body) {
    ByteReader reader(body);
    SessionResponse resp;
    auto id = reader.u64();
    if (!id.ok()) return id.error();
    resp.req_id = id.value();
    auto status = reader.u8();
    if (!status.ok()) return status.error();
    if (status.value() > kMaxSessionStatus) {
      return Error(ErrorCode::kParseError,
                   "unknown session status " + std::to_string(status.value()));
    }
    resp.status = status.value();
    auto text = reader.str();
    if (!text.ok()) return text.error();
    resp.text = std::move(text).value();
    auto number = reader.i64();
    if (!number.ok()) return number.error();
    resp.number = number.value();
    auto payload = reader.bytes();
    if (!payload.ok()) return payload.error();
    resp.payload = std::move(payload).value();
    if (!reader.exhausted()) {
      return Error(ErrorCode::kParseError, "trailing bytes after response");
    }
    return resp;
  }
};

}  // namespace ddbg
