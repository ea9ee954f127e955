#include "green/common/shard.h"

#include <cstdlib>

#include "green/common/stringutil.h"

namespace green {

std::string ShardSpec::ToString() const {
  return StrFormat("%d/%d", index, count);
}

Result<ShardSpec> ParseShardSpec(std::string_view spec) {
  const std::string trimmed(Trim(spec));
  const size_t slash = trimmed.find('/');
  if (slash == std::string::npos || slash == 0 ||
      slash + 1 >= trimmed.size()) {
    return Status::InvalidArgument("shard spec must be \"i/n\": " +
                                   trimmed);
  }
  char* end = nullptr;
  const std::string index_str = trimmed.substr(0, slash);
  const long index = std::strtol(index_str.c_str(), &end, 10);
  if (end == index_str.c_str() || *end != '\0') {
    return Status::InvalidArgument("bad shard index: " + trimmed);
  }
  const std::string count_str = trimmed.substr(slash + 1);
  const long count = std::strtol(count_str.c_str(), &end, 10);
  if (end == count_str.c_str() || *end != '\0') {
    return Status::InvalidArgument("bad shard count: " + trimmed);
  }
  if (count < 1 || count > 4096 || index < 0 || index >= count) {
    return Status::InvalidArgument(
        "shard spec needs 0 <= i < n <= 4096: " + trimmed);
  }
  ShardSpec out;
  out.index = static_cast<int>(index);
  out.count = static_cast<int>(count);
  return out;
}

}  // namespace green
