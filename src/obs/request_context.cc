#include "obs/request_context.h"

#include <algorithm>
#include <limits>

namespace vs::obs {

namespace {

thread_local RequestContext* t_current_context = nullptr;

}  // namespace

RequestContext::RequestContext(std::string id, std::string method,
                               std::string path)
    : id_(std::move(id)),
      method_(std::move(method)),
      path_(std::move(path)) {}

void RequestContext::set_endpoint(const std::string& endpoint) {
  std::lock_guard<std::mutex> lock(mu_);
  endpoint_ = endpoint;
}

std::string RequestContext::endpoint() const {
  std::lock_guard<std::mutex> lock(mu_);
  return endpoint_;
}

double RequestContext::remaining_seconds() const {
  const int64_t deadline_us = deadline_us_.load(std::memory_order_relaxed);
  if (deadline_us <= 0) return std::numeric_limits<double>::infinity();
  const int64_t left_us = deadline_us - ElapsedMicros();
  return left_us > 0 ? static_cast<double>(left_us) * 1e-6 : 0.0;
}

void RequestContext::AddStage(const char* stage, int64_t start_us,
                              int64_t duration_us) {
  std::lock_guard<std::mutex> lock(mu_);
  stages_.push_back(StageRecord{stage, start_us, duration_us});
}

std::vector<StageRecord> RequestContext::stages() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stages_;
}

RequestContext* CurrentRequestContext() { return t_current_context; }

ScopedRequestContext::ScopedRequestContext(RequestContext* context)
    : previous_(t_current_context) {
  t_current_context = context;
}

ScopedRequestContext::~ScopedRequestContext() {
  t_current_context = previous_;
}

void InflightRegistry::Register(
    const std::shared_ptr<RequestContext>& context) {
  std::lock_guard<std::mutex> lock(mu_);
  inflight_.push_back(context);
}

void InflightRegistry::Unregister(const RequestContext* context) {
  std::lock_guard<std::mutex> lock(mu_);
  inflight_.erase(
      std::remove_if(inflight_.begin(), inflight_.end(),
                     [context](const std::shared_ptr<RequestContext>& c) {
                       return c.get() == context;
                     }),
      inflight_.end());
}

std::vector<InflightRequest> InflightRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<InflightRequest> out;
  out.reserve(inflight_.size());
  for (const std::shared_ptr<RequestContext>& c : inflight_) {
    InflightRequest row;
    row.id = c->id();
    row.endpoint = c->endpoint();
    if (row.endpoint.empty()) row.endpoint.push_back('-');
    row.method = c->method();
    row.path = c->path();
    row.age_seconds = static_cast<double>(c->ElapsedMicros()) * 1e-6;
    row.stage = c->current_stage();
    out.push_back(std::move(row));
  }
  return out;
}

size_t InflightRegistry::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return inflight_.size();
}

}  // namespace vs::obs
