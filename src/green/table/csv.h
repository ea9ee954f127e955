#ifndef GREEN_TABLE_CSV_H_
#define GREEN_TABLE_CSV_H_

#include <string>

#include "green/common/status.h"
#include "green/table/dataset.h"

namespace green {

/// CSV interchange for datasets. Format: a header row of feature names
/// followed by "label" (classification) or "target" (regression);
/// categorical columns are marked by a "#cat" suffix in the header;
/// missing values are empty fields. Targets parse strictly — a
/// non-numeric target is an error, never a silent 0. A "#cat" cell must
/// hold an integer code in [0, kMaxCategoryCode], as a label must.
Status WriteCsv(const Dataset& data, const std::string& path);

/// Parses a CSV written by WriteCsv (or hand-authored with the same
/// conventions). `num_classes` of the result is one plus the largest
/// label.
Result<Dataset> ReadCsv(const std::string& path, const std::string& name);

/// In-memory variants, used by tests and by the CLI examples.
std::string ToCsvString(const Dataset& data);
Result<Dataset> FromCsvString(const std::string& text,
                              const std::string& name);

}  // namespace green

#endif  // GREEN_TABLE_CSV_H_
