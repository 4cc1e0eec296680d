// Wire-protocol unit tests: the serve/json.h parser/serializer and the
// serve/protocol.h framing + request/response codecs, with the edge
// cases a server exposed to arbitrary bytes must survive — truncated
// frames, oversize frames, zero-length frames, wrong protocol versions,
// and garbage JSON.

#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "serve/json.h"
#include "serve/protocol.h"

namespace cqa::serve {
namespace {

// ---------------------------------------------------------------- JSON.

TEST(JsonTest, ParsesScalarsAndNesting) {
  JsonValue v;
  std::string error;
  ASSERT_TRUE(JsonValue::Parse(
      R"({"a": 1, "b": [true, null, "x"], "c": {"d": -2.5e2}})", &v,
      &error))
      << error;
  ASSERT_TRUE(v.is_object());
  EXPECT_EQ(v.GetNumber("a", 0), 1.0);
  const JsonValue* b = v.Find("b");
  ASSERT_NE(b, nullptr);
  ASSERT_TRUE(b->is_array());
  ASSERT_EQ(b->AsArray().size(), 3u);
  EXPECT_TRUE(b->AsArray()[0].AsBool());
  EXPECT_EQ(b->AsArray()[1].kind(), JsonValue::Kind::kNull);
  EXPECT_EQ(b->AsArray()[2].AsString(), "x");
  const JsonValue* c = v.Find("c");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->GetNumber("d", 0), -250.0);
}

TEST(JsonTest, RejectsGarbage) {
  const char* kBad[] = {
      "",           "{",        "}",          "{\"a\":}",
      "[1,]",       "tru",      "\"unterminated",
      "{\"a\":1}x", "nan",      "1.2.3",
      "{\"a\" 1}",  "[1 2]",    "\"\\q\"",    "\"\x01\"",
  };
  for (const char* text : kBad) {
    JsonValue v;
    std::string error;
    EXPECT_FALSE(JsonValue::Parse(text, &v, &error))
        << "accepted: " << text;
    EXPECT_FALSE(error.empty()) << text;
  }
}

TEST(JsonTest, RejectsDeepNesting) {
  std::string deep(100, '[');
  deep += std::string(100, ']');
  JsonValue v;
  std::string error;
  EXPECT_FALSE(JsonValue::Parse(deep, &v, &error));
}

TEST(JsonTest, SerializeRoundTrips) {
  JsonValue obj = JsonValue::MakeObject();
  obj.Set("n", JsonValue::MakeNumber(42));
  obj.Set("f", JsonValue::MakeNumber(0.125));
  obj.Set("s", JsonValue::MakeString("a\"b\\c\n\t\x01"));
  JsonValue arr = JsonValue::MakeArray();
  arr.Append(JsonValue::MakeBool(false));
  arr.Append(JsonValue::MakeNull());
  obj.Set("a", std::move(arr));

  JsonValue back;
  std::string error;
  ASSERT_TRUE(JsonValue::Parse(obj.Serialize(), &back, &error)) << error;
  EXPECT_EQ(back.GetNumber("n", 0), 42.0);
  EXPECT_EQ(back.GetNumber("f", 0), 0.125);
  EXPECT_EQ(back.GetString("s", ""), "a\"b\\c\n\t\x01");
  ASSERT_NE(back.Find("a"), nullptr);
  EXPECT_EQ(back.Find("a")->AsArray().size(), 2u);
}

TEST(JsonTest, IntegersPrintExactly) {
  JsonValue v = JsonValue::MakeNumber(123456789012.0);
  EXPECT_EQ(v.Serialize(), "123456789012");
}

TEST(JsonTest, IntegerLiteralsStayExactUpTo64Bits) {
  for (const char* literal :
       {"0", "9007199254740993", "18446744073709551615"}) {
    JsonValue v;
    std::string error;
    ASSERT_TRUE(JsonValue::Parse(literal, &v, &error)) << error;
    EXPECT_TRUE(v.is_exact_uint64()) << literal;
    EXPECT_EQ(v.AsUint64(0), std::stoull(literal)) << literal;
    EXPECT_EQ(v.Serialize(), literal);
  }
  // Beyond 2^64 - 1, negative or fractional: only the double remains.
  for (const char* literal : {"18446744073709551616", "-3", "2.5", "1e3"}) {
    JsonValue v;
    std::string error;
    ASSERT_TRUE(JsonValue::Parse(literal, &v, &error)) << error;
    EXPECT_FALSE(v.is_exact_uint64()) << literal;
  }
  JsonValue big = JsonValue::MakeUint64(UINT64_MAX);
  EXPECT_EQ(big.Serialize(), "18446744073709551615");
  EXPECT_EQ(JsonValue::MakeNumber(-3.0).AsUint64(7), 7u);
  EXPECT_EQ(JsonValue::MakeNumber(1e3).AsUint64(7), 1000u);
}

TEST(RequestCodecTest, SeedAbove53BitsSurvivesBothCodecs) {
  Request request;
  request.op = "query";
  request.data = "/data";
  request.query = "Q(N) :- item(I, N).";
  request.seed = (uint64_t{1} << 53) + 1;  // The first integer a double rounds.
  request.trace_id = "t";
  request.trace_parent = UINT64_MAX;
  ErrorCode code = ErrorCode::kOk;
  std::string error;
  Request json;
  ASSERT_TRUE(Request::FromJsonPayload(request.ToJsonPayload(), &json, &code,
                                       &error))
      << error;
  Request binary;
  ASSERT_TRUE(Request::FromBinaryPayload(request.ToBinaryPayload(), &binary,
                                         &code, &error))
      << error;
  EXPECT_EQ(json.seed, request.seed);
  EXPECT_EQ(binary.seed, request.seed);
  EXPECT_EQ(json.trace_parent, request.trace_parent);
  EXPECT_EQ(binary.trace_parent, request.trace_parent);
}

TEST(JsonTest, UnicodeEscapesDecodeToUtf8) {
  JsonValue v;
  std::string error;
  ASSERT_TRUE(JsonValue::Parse(R"("\u00e9\u0041")", &v, &error)) << error;
  EXPECT_EQ(v.AsString(), "\xc3\xa9"
                          "A");
}

// ------------------------------------------------------------- framing.

TEST(FramingTest, EncodesLengthPrefix) {
  std::string frame = EncodeFrame("abc");
  ASSERT_EQ(frame.size(), 7u);
  EXPECT_EQ(frame[0], '\0');
  EXPECT_EQ(frame[1], '\0');
  EXPECT_EQ(frame[2], '\0');
  EXPECT_EQ(frame[3], '\x03');
  EXPECT_EQ(frame.substr(4), "abc");
}

TEST(FramingTest, ReassemblesSplitFrames) {
  std::string frame = EncodeFrame("hello") + EncodeFrame("world");
  FrameDecoder decoder;
  std::string payload;
  std::string error;
  // Feed one byte at a time: chunk boundaries never align with frames.
  size_t frames = 0;
  for (char c : frame) {
    decoder.Append(&c, 1);
    while (decoder.Next(&payload, &error) == FrameDecoder::Status::kFrame) {
      ++frames;
      EXPECT_EQ(payload, frames == 1 ? "hello" : "world");
    }
  }
  EXPECT_EQ(frames, 2u);
  EXPECT_EQ(decoder.buffered_bytes(), 0u);
}

TEST(FramingTest, TruncatedFrameNeedsMore) {
  std::string frame = EncodeFrame("payload");
  FrameDecoder decoder;
  decoder.Append(frame.data(), frame.size() - 1);  // Missing last byte.
  std::string payload;
  std::string error;
  EXPECT_EQ(decoder.Next(&payload, &error),
            FrameDecoder::Status::kNeedMore);
  decoder.Append(frame.data() + frame.size() - 1, 1);
  EXPECT_EQ(decoder.Next(&payload, &error), FrameDecoder::Status::kFrame);
  EXPECT_EQ(payload, "payload");
}

TEST(FramingTest, ZeroLengthFramePoisons) {
  FrameDecoder decoder;
  const char zeros[4] = {0, 0, 0, 0};
  decoder.Append(zeros, 4);
  std::string payload;
  std::string error;
  EXPECT_EQ(decoder.Next(&payload, &error), FrameDecoder::Status::kError);
  EXPECT_NE(error.find("zero-length"), std::string::npos);
  // Poisoned: even a subsequently valid frame is rejected.
  std::string good = EncodeFrame("x");
  decoder.Append(good.data(), good.size());
  EXPECT_EQ(decoder.Next(&payload, &error), FrameDecoder::Status::kError);
}

TEST(FramingTest, OversizeFramePoisons) {
  FrameDecoder decoder(16);
  std::string frame = EncodeFrame(std::string(17, 'x'));
  decoder.Append(frame.data(), frame.size());
  std::string payload;
  std::string error;
  EXPECT_EQ(decoder.Next(&payload, &error), FrameDecoder::Status::kError);
  EXPECT_NE(error.find("exceeds"), std::string::npos);
}

// ------------------------------------------------------- request codec.

TEST(RequestCodecTest, RoundTrips) {
  Request request;
  request.op = "query";
  request.id = "req-1";
  request.schema = "tpcds";
  request.data = "/data/noisy";
  request.query = "Q(N) :- item(I, N).";
  request.scheme = "Cover";
  request.epsilon = 0.05;
  request.delta = 0.1;
  request.deadline_s = 2.5;
  request.seed = 99;
  request.threads = 3;
  request.want_record = true;

  Request decoded;
  ErrorCode code = ErrorCode::kOk;
  std::string error;
  ASSERT_TRUE(Request::FromJsonPayload(request.ToJsonPayload(), &decoded,
                                       &code, &error))
      << error;
  EXPECT_EQ(decoded.op, "query");
  EXPECT_EQ(decoded.id, "req-1");
  EXPECT_EQ(decoded.schema, "tpcds");
  EXPECT_EQ(decoded.data, "/data/noisy");
  EXPECT_EQ(decoded.query, "Q(N) :- item(I, N).");
  EXPECT_EQ(decoded.scheme, "Cover");
  EXPECT_EQ(decoded.epsilon, 0.05);
  EXPECT_EQ(decoded.delta, 0.1);
  EXPECT_EQ(decoded.deadline_s, 2.5);
  EXPECT_EQ(decoded.seed, 99u);
  EXPECT_EQ(decoded.threads, 3);
  EXPECT_TRUE(decoded.want_record);
}

TEST(RequestCodecTest, RejectsGarbageJson) {
  Request decoded;
  ErrorCode code = ErrorCode::kOk;
  std::string error;
  EXPECT_FALSE(
      Request::FromJsonPayload("{not json", &decoded, &code, &error));
  EXPECT_EQ(code, ErrorCode::kBadRequest);
  EXPECT_FALSE(
      Request::FromJsonPayload("[1, 2, 3]", &decoded, &code, &error));
  EXPECT_EQ(code, ErrorCode::kBadRequest);
}

TEST(RequestCodecTest, RejectsBadVersion) {
  Request decoded;
  ErrorCode code = ErrorCode::kOk;
  std::string error;
  EXPECT_FALSE(Request::FromJsonPayload(R"({"op": "ping"})", &decoded,
                                        &code, &error));
  EXPECT_EQ(code, ErrorCode::kBadVersion);
  EXPECT_FALSE(Request::FromJsonPayload(R"({"v": 2, "op": "ping"})",
                                        &decoded, &code, &error));
  EXPECT_EQ(code, ErrorCode::kBadVersion);
}

TEST(RequestCodecTest, RejectsBadFields) {
  const char* kBad[] = {
      R"({"v": 1, "op": "delete"})",
      R"({"v": 1, "op": "query"})",  // Missing data + query.
      R"({"v": 1, "op": "query", "data": "d", "query": "q",
          "schema": "imdb"})",
      R"({"v": 1, "op": "query", "data": "d", "query": "q",
          "epsilon": -1})",
      R"({"v": 1, "op": "query", "data": "d", "query": "q",
          "delta": 1.5})",
      R"({"v": 1, "op": "query", "data": "d", "query": "q",
          "threads": 0})",
  };
  for (const char* text : kBad) {
    Request decoded;
    ErrorCode code = ErrorCode::kOk;
    std::string error;
    EXPECT_FALSE(Request::FromJsonPayload(text, &decoded, &code, &error))
        << "accepted: " << text;
    EXPECT_EQ(code, ErrorCode::kBadRequest) << text;
  }
}

// ------------------------------------------------ trace context codec.

TEST(RequestCodecTest, TraceContextRoundTrips) {
  Request request;
  request.op = "query";
  request.data = "/data/d";
  request.query = "Q(N) :- item(I, N).";
  request.trace_id = "client-trace-7";
  request.trace_parent = 123456789;

  Request decoded;
  ErrorCode code = ErrorCode::kOk;
  std::string error;
  ASSERT_TRUE(Request::FromJsonPayload(request.ToJsonPayload(), &decoded,
                                       &code, &error))
      << error;
  EXPECT_EQ(decoded.trace_id, "client-trace-7");
  EXPECT_EQ(decoded.trace_parent, 123456789u);
}

TEST(RequestCodecTest, TraceIsOptionalAndWorksOnEveryOp) {
  Request decoded;
  ErrorCode code = ErrorCode::kOk;
  std::string error;
  ASSERT_TRUE(Request::FromJsonPayload(R"({"v": 1, "op": "ping"})",
                                       &decoded, &code, &error))
      << error;
  EXPECT_TRUE(decoded.trace_id.empty());
  EXPECT_EQ(decoded.trace_parent, 0u);
  // Ping and stats carry trace context too — every op is traceable.
  ASSERT_TRUE(Request::FromJsonPayload(
      R"({"v": 1, "op": "stats", "trace": {"id": "t-1"}})", &decoded,
      &code, &error))
      << error;
  EXPECT_EQ(decoded.trace_id, "t-1");
}

TEST(RequestCodecTest, RejectsMalformedTrace) {
  const std::string kPrefix =
      R"({"v": 1, "op": "query", "data": "d", "query": "q", "trace": )";
  const std::string kBad[] = {
      "\"not an object\"}",
      "{}}",                       // Missing id.
      "{\"id\": \"\"}}",           // Empty id.
      "{\"id\": \"t\", \"parent\": -1}}",
      "{\"id\": \"" + std::string(kMaxTraceIdBytes + 1, 'x') + "\"}}",
  };
  for (const std::string& tail : kBad) {
    Request decoded;
    ErrorCode code = ErrorCode::kOk;
    std::string error;
    EXPECT_FALSE(Request::FromJsonPayload(kPrefix + tail, &decoded, &code,
                                          &error))
        << "accepted: " << tail;
    EXPECT_EQ(code, ErrorCode::kBadRequest) << tail;
  }
  // Exactly at the cap is fine.
  Request decoded;
  ErrorCode code = ErrorCode::kOk;
  std::string error;
  EXPECT_TRUE(Request::FromJsonPayload(
      kPrefix + "{\"id\": \"" + std::string(kMaxTraceIdBytes, 'x') + "\"}}",
      &decoded, &code, &error))
      << error;
  EXPECT_EQ(decoded.trace_id.size(), kMaxTraceIdBytes);
}

// ------------------------------------------------------ response codec.

TEST(ResponseCodecTest, RoundTripsSuccess) {
  Response response;
  response.id = "req-7";
  response.answers.push_back(ResponseAnswer{"(1, 'Bob')", 0.5});
  response.answers.push_back(ResponseAnswer{"(2, 'Alice')", 1.0});
  response.cache_hit = true;
  response.timed_out = false;
  response.preprocess_seconds = 0.25;
  response.scheme_seconds = 1.5;
  response.total_samples = 12345;
  response.run_record_json = R"({"scheme":"KLM"})";

  Response decoded;
  std::string error;
  ASSERT_TRUE(Response::FromJsonPayload(response.ToJsonPayload(), &decoded,
                                        &error))
      << error;
  EXPECT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.id, "req-7");
  ASSERT_EQ(decoded.answers.size(), 2u);
  EXPECT_EQ(decoded.answers[0].tuple, "(1, 'Bob')");
  EXPECT_EQ(decoded.answers[0].frequency, 0.5);
  EXPECT_EQ(decoded.answers[1].tuple, "(2, 'Alice')");
  EXPECT_TRUE(decoded.cache_hit);
  EXPECT_FALSE(decoded.timed_out);
  EXPECT_EQ(decoded.preprocess_seconds, 0.25);
  EXPECT_EQ(decoded.scheme_seconds, 1.5);
  EXPECT_EQ(decoded.total_samples, 12345u);
  EXPECT_EQ(decoded.run_record_json, R"({"scheme":"KLM"})");
}

TEST(ResponseCodecTest, RoundTripsError) {
  Response response = Response::MakeError(ErrorCode::kOverloaded,
                                          "queue full", "req-9");
  response.retry_after_s = 1.25;

  Response decoded;
  std::string error;
  ASSERT_TRUE(Response::FromJsonPayload(response.ToJsonPayload(), &decoded,
                                        &error))
      << error;
  EXPECT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.code, ErrorCode::kOverloaded);
  EXPECT_EQ(decoded.error, "queue full");
  EXPECT_EQ(decoded.id, "req-9");
  EXPECT_EQ(decoded.retry_after_s, 1.25);
}

TEST(ResponseCodecTest, TimingRoundTripsWhenRecorded) {
  Response response;
  response.id = "req-t";
  response.timing.recorded = true;
  response.timing.queue_wait_micros = 11;
  response.timing.cache_micros = 22;
  response.timing.preprocess_micros = 33;
  response.timing.sample_micros = 44;
  response.timing.encode_micros = 5;
  response.timing.total_micros = 120;

  Response decoded;
  std::string error;
  ASSERT_TRUE(Response::FromJsonPayload(response.ToJsonPayload(), &decoded,
                                        &error))
      << error;
  ASSERT_TRUE(decoded.timing.recorded);
  EXPECT_EQ(decoded.timing.queue_wait_micros, 11u);
  EXPECT_EQ(decoded.timing.cache_micros, 22u);
  EXPECT_EQ(decoded.timing.preprocess_micros, 33u);
  EXPECT_EQ(decoded.timing.sample_micros, 44u);
  EXPECT_EQ(decoded.timing.encode_micros, 5u);
  EXPECT_EQ(decoded.timing.total_micros, 120u);
  EXPECT_EQ(decoded.timing.PhaseSumMicros(), 11u + 22 + 33 + 44 + 5);
}

TEST(ResponseCodecTest, TimingIsAbsentWhenNotRecorded) {
  Response response;
  response.id = "req-u";
  std::string payload = response.ToJsonPayload();
  EXPECT_EQ(payload.find("\"timing\""), std::string::npos) << payload;
  Response decoded;
  std::string error;
  ASSERT_TRUE(Response::FromJsonPayload(payload, &decoded, &error)) << error;
  EXPECT_FALSE(decoded.timing.recorded);
}

TEST(ResponseCodecTest, ErrorCodeNamesCoverEveryCode) {
  for (ErrorCode code :
       {ErrorCode::kOk, ErrorCode::kBadRequest, ErrorCode::kNotFound,
        ErrorCode::kDeadlineExceeded, ErrorCode::kFrameTooLarge,
        ErrorCode::kBadVersion, ErrorCode::kInternal,
        ErrorCode::kOverloaded, ErrorCode::kDraining}) {
    EXPECT_STRNE(ErrorCodeName(code), "unknown");
  }
}

// ------------------------------------------------- Binary (v2) codec.

// A fully-populated query request for round-trip property tests.
Request FullQueryRequest() {
  Request request;
  request.op = "query";
  request.id = "req-bin-1";
  request.schema = "tpcds";
  request.data = "/data/noisy";
  request.query = "Q(N) :- item(I, N).";
  request.scheme = "Cover";
  request.epsilon = 0.05;
  request.delta = 0.1;
  request.deadline_s = 2.5;
  request.seed = 99;
  request.threads = 3;
  request.want_record = true;
  request.trace_id = "trace-bin";
  request.trace_parent = 41;
  return request;
}

// Property: decoding the binary payload must yield exactly the request
// the JSON codec yields, field for field (version differs by design:
// the codec *is* the version).
void ExpectSameRequest(const Request& bin, const Request& json) {
  EXPECT_EQ(bin.version, kProtocolVersionBinary);
  EXPECT_EQ(json.version, kProtocolVersion);
  EXPECT_EQ(bin.op, json.op);
  EXPECT_EQ(bin.id, json.id);
  EXPECT_EQ(bin.schema, json.schema);
  EXPECT_EQ(bin.data, json.data);
  EXPECT_EQ(bin.query, json.query);
  EXPECT_EQ(bin.scheme, json.scheme);
  EXPECT_EQ(bin.epsilon, json.epsilon);
  EXPECT_EQ(bin.delta, json.delta);
  EXPECT_EQ(bin.deadline_s, json.deadline_s);
  EXPECT_EQ(bin.seed, json.seed);
  EXPECT_EQ(bin.threads, json.threads);
  EXPECT_EQ(bin.want_record, json.want_record);
  EXPECT_EQ(bin.trace_id, json.trace_id);
  EXPECT_EQ(bin.trace_parent, json.trace_parent);
}

TEST(BinaryCodecTest, DetectsCodecFromFirstByte) {
  WireCodec codec = WireCodec::kBinary;
  ASSERT_TRUE(DetectCodec("{\"v\":1}", &codec));
  EXPECT_EQ(codec, WireCodec::kJson);
  ASSERT_TRUE(DetectCodec("  \n\t {\"v\":1}", &codec));
  EXPECT_EQ(codec, WireCodec::kJson);
  ASSERT_TRUE(DetectCodec(std::string("\x02\x01", 2), &codec));
  EXPECT_EQ(codec, WireCodec::kBinary);
  EXPECT_FALSE(DetectCodec("", &codec));
  EXPECT_FALSE(DetectCodec("GET / HTTP/1.1", &codec));
  EXPECT_FALSE(DetectCodec(std::string(1, '\0'), &codec));
}

TEST(BinaryCodecTest, RequestRoundTripMatchesJsonCodec) {
  const Request request = FullQueryRequest();

  Request from_binary;
  Request from_json;
  WireCodec codec = WireCodec::kJson;
  ErrorCode code = ErrorCode::kOk;
  std::string error;
  ASSERT_TRUE(Request::FromPayload(request.ToBinaryPayload(), &from_binary,
                                   &codec, &code, &error))
      << error;
  EXPECT_EQ(codec, WireCodec::kBinary);
  ASSERT_TRUE(Request::FromPayload(request.ToJsonPayload(), &from_json,
                                   &codec, &code, &error))
      << error;
  EXPECT_EQ(codec, WireCodec::kJson);
  ExpectSameRequest(from_binary, from_json);
}

TEST(BinaryCodecTest, RequestRoundTripsEveryOp) {
  for (const char* op : {"query", "stats", "ping"}) {
    Request request = FullQueryRequest();
    request.op = op;
    Request decoded;
    ErrorCode code = ErrorCode::kOk;
    std::string error;
    ASSERT_TRUE(Request::FromBinaryPayload(request.ToBinaryPayload(),
                                           &decoded, &code, &error))
        << op << ": " << error;
    EXPECT_EQ(decoded.op, op);
    EXPECT_EQ(decoded.id, request.id);
    EXPECT_EQ(decoded.trace_id, request.trace_id);
    EXPECT_EQ(decoded.trace_parent, request.trace_parent);
  }
}

TEST(BinaryCodecTest, RequestValidationMatchesJsonCodec) {
  // The binary decoder funnels through the same semantic validator as
  // the JSON decoder, so out-of-range fields are rejected identically.
  Request request = FullQueryRequest();
  request.epsilon = 1.5;
  Request decoded;
  ErrorCode code = ErrorCode::kOk;
  std::string error;
  EXPECT_FALSE(Request::FromBinaryPayload(request.ToBinaryPayload(),
                                          &decoded, &code, &error));
  EXPECT_EQ(code, ErrorCode::kBadRequest);

  request = FullQueryRequest();
  request.data.clear();
  code = ErrorCode::kOk;
  EXPECT_FALSE(Request::FromBinaryPayload(request.ToBinaryPayload(),
                                          &decoded, &code, &error));
  EXPECT_EQ(code, ErrorCode::kBadRequest);
}

TEST(BinaryCodecTest, RequestRejectsWrongKindByte) {
  // Kind 2 is a response; a request decoder must not accept it.
  Request decoded;
  ErrorCode code = ErrorCode::kOk;
  std::string error;
  EXPECT_FALSE(Request::FromBinaryPayload(std::string("\x02\x02", 2),
                                          &decoded, &code, &error));
  EXPECT_EQ(code, ErrorCode::kBadRequest);
  EXPECT_FALSE(Request::FromBinaryPayload(std::string("\x02", 1), &decoded,
                                          &code, &error));
  EXPECT_EQ(code, ErrorCode::kBadRequest);
}

TEST(BinaryCodecTest, RequestSkipsUnknownFieldsForForwardCompat) {
  std::string payload = FullQueryRequest().ToBinaryPayload();
  // Field 60 varint 7: tag = (60 << 3) | 0 = 480 → varint e0 03.
  payload.push_back(static_cast<char>(0xe0));
  payload.push_back(static_cast<char>(0x03));
  payload.push_back(static_cast<char>(0x07));
  // Field 61 length-delimited "xx": tag = (61 << 3) | 2 = 490 → ea 03.
  payload.push_back(static_cast<char>(0xea));
  payload.push_back(static_cast<char>(0x03));
  payload.push_back(static_cast<char>(0x02));
  payload += "xx";
  Request decoded;
  ErrorCode code = ErrorCode::kOk;
  std::string error;
  ASSERT_TRUE(Request::FromBinaryPayload(payload, &decoded, &code, &error))
      << error;
  EXPECT_EQ(decoded.id, "req-bin-1");
  EXPECT_EQ(decoded.query, "Q(N) :- item(I, N).");
}

TEST(BinaryCodecTest, TruncatedRequestNeverCrashesAndFailsMidField) {
  const std::string payload = FullQueryRequest().ToBinaryPayload();
  Request decoded;
  ErrorCode code = ErrorCode::kOk;
  std::string error;
  ASSERT_TRUE(
      Request::FromBinaryPayload(payload, &decoded, &code, &error));
  size_t rejected = 0;
  for (size_t n = 0; n < payload.size(); ++n) {
    Request scratch;
    code = ErrorCode::kOk;
    // A prefix cut at a field boundary may decode (the tail fields were
    // optional); a mid-field cut must fail with kBadRequest. Either
    // way: no crash, no undefined state.
    if (!Request::FromBinaryPayload(payload.substr(0, n), &scratch, &code,
                                    &error)) {
      EXPECT_EQ(code, ErrorCode::kBadRequest) << "prefix " << n;
      ++rejected;
    }
  }
  EXPECT_GT(rejected, payload.size() / 2);
}

TEST(BinaryCodecTest, GarbageAfterMagicNeverCrashes) {
  // Deterministic pseudo-random garbage bodies behind a valid header.
  uint64_t state = 0x9e3779b97f4a7c15ull;
  for (int round = 0; round < 64; ++round) {
    std::string payload("\x02\x01", 2);
    const size_t len = static_cast<size_t>(round) * 3 + 1;
    for (size_t i = 0; i < len; ++i) {
      state = state * 6364136223846793005ull + 1442695040888963407ull;
      payload.push_back(static_cast<char>(state >> 33));
    }
    Request decoded;
    ErrorCode code = ErrorCode::kOk;
    std::string error;
    // Must terminate and either reject cleanly or decode to a request
    // that passed full semantic validation.
    if (Request::FromBinaryPayload(payload, &decoded, &code, &error)) {
      EXPECT_TRUE(decoded.op == "query" || decoded.op == "stats" ||
                  decoded.op == "ping");
    } else {
      EXPECT_EQ(code, ErrorCode::kBadRequest);
    }
  }
}

TEST(BinaryCodecTest, ResponseRoundTripsSuccessWithAnswersAndTiming) {
  Response response;
  response.id = "req-bin-7";
  response.answers.push_back(ResponseAnswer{"(1, 'Bob')", 0.5});
  response.answers.push_back(ResponseAnswer{"(2, 'Alice')", 1.0});
  response.answers.push_back(ResponseAnswer{"", 0.0});  // Empty tuple.
  response.cache_hit = true;
  response.timed_out = true;
  response.preprocess_seconds = 0.25;
  response.scheme_seconds = 1.5;
  response.total_samples = 1234567890123ull;
  response.run_record_json = R"({"scheme":"KLM"})";
  response.timing.recorded = true;
  response.timing.queue_wait_micros = 11;
  response.timing.cache_micros = 22;
  response.timing.preprocess_micros = 33;
  response.timing.sample_micros = 44;
  response.timing.encode_micros = 5;
  response.timing.total_micros = 120;

  Response decoded;
  std::string error;
  ASSERT_TRUE(Response::FromPayload(response.ToBinaryPayload(), &decoded,
                                    &error))
      << error;
  EXPECT_EQ(decoded.version, kProtocolVersionBinary);
  EXPECT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.id, "req-bin-7");
  ASSERT_EQ(decoded.answers.size(), 3u);
  EXPECT_EQ(decoded.answers[0].tuple, "(1, 'Bob')");
  EXPECT_EQ(decoded.answers[0].frequency, 0.5);
  EXPECT_EQ(decoded.answers[1].tuple, "(2, 'Alice')");
  EXPECT_EQ(decoded.answers[1].frequency, 1.0);
  EXPECT_EQ(decoded.answers[2].tuple, "");
  EXPECT_TRUE(decoded.cache_hit);
  EXPECT_TRUE(decoded.timed_out);
  EXPECT_EQ(decoded.preprocess_seconds, 0.25);
  EXPECT_EQ(decoded.scheme_seconds, 1.5);
  EXPECT_EQ(decoded.total_samples, 1234567890123ull);
  EXPECT_EQ(decoded.run_record_json, R"({"scheme":"KLM"})");
  ASSERT_TRUE(decoded.timing.recorded);
  EXPECT_EQ(decoded.timing.PhaseSumMicros(), 11u + 22 + 33 + 44 + 5);
  EXPECT_EQ(decoded.timing.total_micros, 120u);
}

TEST(BinaryCodecTest, ResponseRoundTripsErrorPongAndStats) {
  Response err = Response::MakeError(ErrorCode::kOverloaded, "queue full",
                                     "req-9");
  err.retry_after_s = 1.25;
  Response decoded;
  std::string error;
  ASSERT_TRUE(Response::FromBinaryPayload(err.ToBinaryPayload(), &decoded,
                                          &error))
      << error;
  EXPECT_EQ(decoded.code, ErrorCode::kOverloaded);
  EXPECT_EQ(decoded.error, "queue full");
  EXPECT_EQ(decoded.id, "req-9");
  EXPECT_EQ(decoded.retry_after_s, 1.25);

  Response pong;
  pong.id = "p";
  pong.pong = true;
  decoded = Response();
  ASSERT_TRUE(Response::FromBinaryPayload(pong.ToBinaryPayload(), &decoded,
                                          &error))
      << error;
  EXPECT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded.pong);

  Response stats;
  stats.id = "s";
  stats.metrics_json = R"({"serve.requests_total":4})";
  stats.server_json = R"({"draining":false})";
  decoded = Response();
  ASSERT_TRUE(Response::FromBinaryPayload(stats.ToBinaryPayload(), &decoded,
                                          &error))
      << error;
  EXPECT_EQ(decoded.metrics_json, R"({"serve.requests_total":4})");
  EXPECT_EQ(decoded.server_json, R"({"draining":false})");
}

TEST(BinaryCodecTest, TruncatedResponseNeverCrashes) {
  Response response;
  response.id = "req-t";
  response.answers.push_back(ResponseAnswer{"(1)", 0.25});
  response.timing.recorded = true;
  response.timing.total_micros = 9;
  const std::string payload = response.ToBinaryPayload();
  for (size_t n = 0; n < payload.size(); ++n) {
    Response scratch;
    std::string error;
    // Same contract as the request decoder: terminate, no crash.
    Response::FromBinaryPayload(payload.substr(0, n), &scratch, &error);
  }
  // A corrupted packed-answers block (count says 200, bytes say one) is
  // a malformed field, not an allocation bomb.
  std::string corrupt("\x02\x02", 2);
  corrupt.push_back(static_cast<char>((10 << 3) | 2));  // kRespAnswers, len.
  corrupt.push_back(2);
  corrupt.push_back(static_cast<char>(200));  // varint 200 needs 2 bytes...
  corrupt.push_back(1);                       // ...count = 200, no payload.
  Response scratch;
  std::string error;
  EXPECT_FALSE(Response::FromBinaryPayload(corrupt, &scratch, &error));
}

}  // namespace
}  // namespace cqa::serve
