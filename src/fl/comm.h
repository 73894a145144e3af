#ifndef RFED_FL_COMM_H_
#define RFED_FL_COMM_H_

#include <cstdint>

namespace rfed {

/// Byte-exact accounting of the simulated server<->client traffic.
/// Every algorithm charges each transfer it would make on a real
/// deployment; Table III and the communication-efficiency claims are
/// read straight off these counters.
class CommStats {
 public:
  /// Server -> client transfer.
  void Download(int64_t bytes) {
    total_down_bytes_ += bytes;
    round_down_bytes_ += bytes;
    ++down_messages_;
    ++round_down_messages_;
  }

  /// Client -> server transfer.
  void Upload(int64_t bytes) {
    total_up_bytes_ += bytes;
    round_up_bytes_ += bytes;
    ++up_messages_;
    ++round_up_messages_;
  }

  /// Resets the per-round counters (call at round start). Cumulative
  /// totals are unaffected; both byte *and* message counters reset.
  void BeginRound() {
    round_down_bytes_ = 0;
    round_up_bytes_ = 0;
    round_down_messages_ = 0;
    round_up_messages_ = 0;
  }

  int64_t total_down_bytes() const { return total_down_bytes_; }
  int64_t total_up_bytes() const { return total_up_bytes_; }
  int64_t total_bytes() const { return total_down_bytes_ + total_up_bytes_; }
  int64_t round_down_bytes() const { return round_down_bytes_; }
  int64_t round_up_bytes() const { return round_up_bytes_; }
  int64_t round_bytes() const { return round_down_bytes_ + round_up_bytes_; }
  int64_t down_messages() const { return down_messages_; }
  int64_t up_messages() const { return up_messages_; }
  int64_t round_down_messages() const { return round_down_messages_; }
  int64_t round_up_messages() const { return round_up_messages_; }
  int64_t round_messages() const {
    return round_down_messages_ + round_up_messages_;
  }

  /// Restores the cumulative totals from a checkpoint. Per-round
  /// counters are not restored: a resumed run always continues at a
  /// round boundary, where BeginRound() zeroes them anyway.
  void Restore(int64_t down_bytes, int64_t up_bytes, int64_t down_msgs,
               int64_t up_msgs) {
    total_down_bytes_ = down_bytes;
    total_up_bytes_ = up_bytes;
    down_messages_ = down_msgs;
    up_messages_ = up_msgs;
    BeginRound();
  }

 private:
  int64_t total_down_bytes_ = 0;
  int64_t total_up_bytes_ = 0;
  int64_t round_down_bytes_ = 0;
  int64_t round_up_bytes_ = 0;
  int64_t down_messages_ = 0;
  int64_t up_messages_ = 0;
  int64_t round_down_messages_ = 0;
  int64_t round_up_messages_ = 0;
};

}  // namespace rfed

#endif  // RFED_FL_COMM_H_
