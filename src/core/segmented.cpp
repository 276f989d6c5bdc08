#include "core/segmented.hpp"

#include <algorithm>

#include "common/bits.hpp"
#include "common/error.hpp"

namespace cuszp2::core {

namespace {

constexpr u64 kSegMagic = 0x32505A43'47455301ull;  // "SEG..CZP2"
constexpr u32 kSegVersion = 1;

}  // namespace

template <FloatingPoint T>
SegmentedCompressor<T>::SegmentedCompressor(Config config, usize segmentElems,
                                            gpusim::DeviceSpec device)
    : stream_(config, std::move(device)), segmentElems_(segmentElems) {
  require(segmentElems > 0,
          "SegmentedCompressor: segmentElems must be positive");
  buffer_.reserve(segmentElems);
}

template <FloatingPoint T>
void SegmentedCompressor<T>::append(std::span<const T> values) {
  usize consumed = 0;
  while (consumed < values.size()) {
    const usize take = std::min(values.size() - consumed,
                                segmentElems_ - buffer_.size());
    buffer_.insert(buffer_.end(), values.begin() + consumed,
                   values.begin() + consumed + take);
    consumed += take;
    totalElems_ += take;
    if (buffer_.size() == segmentElems_) flushSegment();
  }
}

template <FloatingPoint T>
void SegmentedCompressor<T>::flushSegment() {
  segments_.push_back(
      stream_.compress<T>(std::span<const T>(buffer_)).stream);
  buffer_.clear();
}

template <FloatingPoint T>
usize SegmentedCompressor<T>::compressedBytes() const {
  usize total = 0;
  for (const auto& s : segments_) total += s.size();
  return total;
}

template <FloatingPoint T>
std::vector<std::byte> SegmentedCompressor<T>::finish() {
  if (!buffer_.empty()) flushSegment();

  std::vector<std::byte> out;
  ByteWriter w(out);
  w.putU64(kSegMagic);
  w.putU64(kSegVersion);  // version u32 + reserved u32
  w.putU64(segmentElems_);
  w.putU64(segments_.size());
  for (const auto& s : segments_) w.putU64(s.size());
  for (const auto& s : segments_) w.putBytes(s);

  segments_.clear();
  totalElems_ = 0;
  return out;
}

template <FloatingPoint T>
SegmentedReader<T>::SegmentedReader(ConstByteSpan container,
                                    gpusim::DeviceSpec device)
    : container_(container),
      stream_(Config{.absErrorBound = 1.0}, std::move(device)) {
  ByteReader toc(container, "Segmented: truncated container");
  require(toc.takeU64() == kSegMagic,
          "SegmentedReader: bad magic (not a segmented cuSZp2 container)");
  require((toc.takeU64() & 0xFFFFFFFFu) == kSegVersion,
          "SegmentedReader: unsupported container version");
  toc.takeU64();  // segment size: informational, each stream self-sizes
  const u64 numSegments = toc.takeU64();
  require(numSegments <= 100'000'000,
          "SegmentedReader: implausible segment count");

  usize offset = 32 + static_cast<usize>(numSegments) * 8;
  entries_.reserve(numSegments);
  for (u64 i = 0; i < numSegments; ++i) {
    Entry e;
    e.length = toc.takeU64();
    e.offset = offset;
    require(offset + e.length >= offset && offset + e.length <=
                container.size(),
            "SegmentedReader: container shorter than its table of contents");
    const auto header =
        StreamHeader::parse(container.subspan(e.offset, e.length));
    require(header.precision == precisionOf<T>(),
            "SegmentedReader: segment precision mismatch");
    e.elements = header.numElements;
    totalElems_ += e.elements;
    offset += e.length;
    entries_.push_back(e);
  }
}

template <FloatingPoint T>
usize SegmentedReader<T>::segmentElements(usize index) const {
  require(index < entries_.size(), "SegmentedReader: index out of range");
  return static_cast<usize>(entries_[index].elements);
}

template <FloatingPoint T>
std::vector<T> SegmentedReader<T>::segment(usize index) const {
  require(index < entries_.size(), "SegmentedReader: index out of range");
  const auto& e = entries_[index];
  return stream_.decompress<T>(container_.subspan(e.offset, e.length)).data;
}

template <FloatingPoint T>
Salvaged<T> SegmentedReader<T>::segmentResilient(usize index,
                                                 T fillValue) const {
  require(index < entries_.size(), "SegmentedReader: index out of range");
  const auto& e = entries_[index];
  return stream_.decompressResilient<T>(
      container_.subspan(e.offset, e.length), fillValue);
}

template <FloatingPoint T>
std::vector<T> SegmentedReader<T>::all() const {
  std::vector<T> out;
  out.reserve(static_cast<usize>(totalElems_));
  for (usize i = 0; i < entries_.size(); ++i) {
    const auto seg = segment(i);
    out.insert(out.end(), seg.begin(), seg.end());
  }
  return out;
}

template class SegmentedCompressor<f32>;
template class SegmentedCompressor<f64>;
template class SegmentedReader<f32>;
template class SegmentedReader<f64>;

}  // namespace cuszp2::core
