#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace perfbench {

Tracer::Tracer() : epoch_(std::chrono::steady_clock::now()) {}

int64_t Tracer::Now() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

size_t Tracer::Open(const std::string& name, uint64_t request) {
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.request = request;
  spans_.push_back(std::move(span));
  const size_t index = spans_.size() - 1;
  open_.push_back(static_cast<int32_t>(index));
  spans_[index].start_ns = spans_[index].end_ns = Now();
  return index;
}

void Tracer::Close(size_t index) {
  spans_[index].end_ns = Now();
  // Spans close innermost first; pop this one and anything left open
  // inside it.
  while (!open_.empty() && open_.back() >= static_cast<int32_t>(index)) open_.pop_back();
}

ScopedSpan::ScopedSpan(Tracer* tracer, const std::string& name, uint64_t request)
    : tracer_(tracer) {
  if (tracer_ != nullptr) {
    index_ = tracer_->Open(name, request);
    open_ = true;
  }
}

double ScopedSpan::End() {
  if (tracer_ == nullptr) return 0;
  if (open_) {
    open_ = false;
    tracer_->Close(index_);
  }
  return tracer_->spans()[index_].seconds();
}

bool Tracer::WriteJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("[\n", f);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,"
                 "\"parent\":%d,\"request\":%llu}%s\n",
                 i, s.name.c_str(), static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.parent,
                 static_cast<unsigned long long>(s.request),
                 i + 1 == spans_.size() ? "" : ",");
  }
  std::fputs("]\n", f);
  return std::fclose(f) == 0;
}

std::vector<double> SelfSeconds(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0 && static_cast<size_t>(s.parent) < spans.size()) {
      children[static_cast<size_t>(s.parent)].emplace_back(s.start_ns, s.end_ns);
    }
  }
  std::vector<double> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    int64_t covered = 0;
    int64_t cursor = s.start_ns;
    for (auto [begin, end] : kids) {
      begin = std::max(begin, cursor);
      end = std::min(end, s.end_ns);
      if (end > begin) {
        covered += end - begin;
        cursor = end;
      }
    }
    self[i] = static_cast<double>(s.end_ns - s.start_ns - covered) * 1e-9;
  }
  return self;
}

std::map<std::string, double> SelfSecondsByName(const std::vector<Span>& spans) {
  const std::vector<double> self = SelfSeconds(spans);
  std::map<std::string, double> by_name;
  for (size_t i = 0; i < spans.size(); ++i) by_name[spans[i].name] += self[i];
  return by_name;
}

SpanSummary Summarize(const std::vector<Span>& spans) {
  const std::vector<double> self = SelfSeconds(spans);
  SpanSummary out;
  double root_self = 0;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent < 0) {
      out.root_seconds += spans[i].seconds();
      root_self += self[i];
    } else {
      out.layer_self[spans[i].name.substr(0, spans[i].name.find('.'))] += self[i];
    }
  }
  if (out.root_seconds > 0) out.attributed_share = 1.0 - root_self / out.root_seconds;
  return out;
}

std::vector<double> Durations(const std::vector<Span>& spans, const std::string& name) {
  std::vector<double> out;
  for (const Span& s : spans) {
    if (s.name == name) out.push_back(s.seconds());
  }
  return out;
}

}  // namespace perfbench
