#include "store/snapshot_io.hpp"

#include <cstring>
#include <fstream>
#include <type_traits>

#include "common/hash.hpp"

namespace atm::store {

namespace {

void set_error(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
}

// --- payload writer --------------------------------------------------------

struct Writer {
  std::vector<std::uint8_t> bytes;

  template <typename T>
  void put(T value) {
    static_assert(std::is_trivially_copyable_v<T>);
    const std::size_t at = bytes.size();
    bytes.resize(at + sizeof(T));
    std::memcpy(bytes.data() + at, &value, sizeof(T));
  }
  void put_bytes(const std::vector<std::uint8_t>& data) {
    bytes.insert(bytes.end(), data.begin(), data.end());
  }
};

std::uint64_t double_bits(double d) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

double bits_double(std::uint64_t bits) {
  double d = 0;
  std::memcpy(&d, &bits, sizeof(d));
  return d;
}

std::uint32_t byteswap32(std::uint32_t v) {
  return (v >> 24) | ((v >> 8) & 0x0000ff00u) | ((v << 8) & 0x00ff0000u) | (v << 24);
}

void write_entry(Writer* w, const MemoEntry& e) {
  w->put(e.key.type_id);
  w->put(e.key.hash);
  w->put(double_bits(e.key.p));
  w->put(e.creator);
  w->put(static_cast<std::uint32_t>(e.regions.size()));
  for (const MemoRegion& r : e.regions) {
    w->put(r.elem);
    w->put(static_cast<std::uint8_t>(r.encoding));
    w->put(r.raw_bytes != 0 ? r.raw_bytes
                            : static_cast<std::uint64_t>(r.data.size()));
    w->put(static_cast<std::uint64_t>(r.data.size()));
    w->put_bytes(r.data);
  }
}

// --- bounds-checked payload reader -----------------------------------------

struct Reader {
  const std::uint8_t* data;
  std::size_t size;
  std::size_t pos = 0;
  bool ok = true;

  template <typename T>
  T get() {
    static_assert(std::is_trivially_copyable_v<T>);
    T value{};
    if (!ok || size - pos < sizeof(T)) {
      ok = false;
      return value;
    }
    std::memcpy(&value, data + pos, sizeof(T));
    pos += sizeof(T);
    return value;
  }
  bool get_bytes(std::size_t n, std::vector<std::uint8_t>* out) {
    if (!ok || size - pos < n) {
      ok = false;
      return false;
    }
    out->assign(data + pos, data + pos + n);
    pos += n;
    return true;
  }
};

bool read_entry(Reader* r, MemoEntry* e) {
  e->key.type_id = r->get<std::uint32_t>();
  e->key.hash = r->get<std::uint64_t>();
  e->key.p = bits_double(r->get<std::uint64_t>());
  e->creator = r->get<std::uint64_t>();
  const auto n_regions = r->get<std::uint32_t>();
  if (!r->ok) return false;
  e->regions.clear();
  e->regions.reserve(n_regions);
  for (std::uint32_t i = 0; i < n_regions; ++i) {
    MemoRegion region;
    region.elem = r->get<std::uint8_t>();
    const auto encoding = r->get<std::uint8_t>();
    if (encoding > static_cast<std::uint8_t>(RegionEncoding::Rle)) return false;
    region.encoding = static_cast<RegionEncoding>(encoding);
    region.raw_bytes = r->get<std::uint64_t>();
    const auto stored = r->get<std::uint64_t>();
    if (!r->ok || !r->get_bytes(static_cast<std::size_t>(stored), &region.data)) {
      return false;
    }
    e->regions.push_back(std::move(region));
  }
  return r->ok;
}

}  // namespace

bool save(const std::string& path, const StoreImage& image, std::string* error) {
  Writer payload;
  payload.put(static_cast<std::uint32_t>(image.controllers.size()));
  for (const ControllerState& c : image.controllers) {
    payload.put(c.type_id);
    payload.put(static_cast<std::uint8_t>(c.steady ? 1 : 0));
    payload.put(double_bits(c.p));
    payload.put(c.trained_tasks);
  }
  payload.put(static_cast<std::uint64_t>(image.l1.size()));
  payload.put(static_cast<std::uint64_t>(image.l2.size()));
  for (const MemoEntry& e : image.l1) write_entry(&payload, e);
  for (const MemoEntry& e : image.l2) write_entry(&payload, e);

  const std::uint64_t checksum = hash_bytes(payload.bytes, kChecksumSeed);

  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  if (!file) {
    set_error(error, "cannot open '" + path + "' for writing");
    return false;
  }
  Writer header;
  header.bytes.assign(kMagic, kMagic + sizeof(kMagic));
  header.put(kFormatVersion);
  header.put(kEndianMarker);
  header.put(static_cast<std::uint64_t>(payload.bytes.size()));
  header.put(checksum);
  file.write(reinterpret_cast<const char*>(header.bytes.data()),
             static_cast<std::streamsize>(header.bytes.size()));
  file.write(reinterpret_cast<const char*>(payload.bytes.data()),
             static_cast<std::streamsize>(payload.bytes.size()));
  file.flush();
  if (!file) {
    set_error(error, "write to '" + path + "' failed");
    return false;
  }
  return true;
}

namespace {

/// Verify the container (magic, version, endianness, size, checksum) of a
/// whole snapshot file already read into `bytes`; on success points
/// *payload/*payload_size at the verified payload inside `bytes`.
bool verify_container(const std::string& path, const std::vector<std::uint8_t>& bytes,
                      const std::uint8_t** payload, std::size_t* payload_size,
                      std::string* error) {
  constexpr std::size_t kHeaderBytes = sizeof(kMagic) + 4 + 4 + 8 + 8;
  if (bytes.size() < kHeaderBytes) {
    set_error(error, "'" + path + "' is too short to be a store snapshot");
    return false;
  }
  if (std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0) {
    set_error(error, "'" + path + "' is not a store snapshot (bad magic)");
    return false;
  }
  Reader header{bytes.data() + sizeof(kMagic), bytes.size() - sizeof(kMagic)};
  const auto version = header.get<std::uint32_t>();
  const auto endian = header.get<std::uint32_t>();
  const auto size = header.get<std::uint64_t>();
  const auto checksum = header.get<std::uint64_t>();
  if (version == byteswap32(kFormatVersion) || endian == byteswap32(kEndianMarker)) {
    set_error(error,
              "'" + path +
                  "' was written on a machine with the opposite byte order; "
                  "store snapshots are native-endian and cannot be loaded "
                  "across endianness — regenerate with --save-store on this "
                  "machine");
    return false;
  }
  if (version != kFormatVersion) {
    set_error(error, "'" + path + "' has format version " + std::to_string(version) +
                         ", expected " + std::to_string(kFormatVersion) +
                         " — regenerate with --save-store");
    return false;
  }
  if (endian != kEndianMarker) {
    set_error(error, "'" + path + "' has a corrupt endianness marker");
    return false;
  }
  if (size != bytes.size() - kHeaderBytes) {
    set_error(error, "'" + path + "' payload size mismatch (truncated?)");
    return false;
  }
  const std::uint8_t* data = bytes.data() + kHeaderBytes;
  if (hash_bytes(data, static_cast<std::size_t>(size), kChecksumSeed) != checksum) {
    set_error(error, "'" + path + "' checksum mismatch (corrupted)");
    return false;
  }
  *payload = data;
  *payload_size = static_cast<std::size_t>(size);
  return true;
}

bool read_whole_file(const std::string& path, std::vector<std::uint8_t>* bytes,
                     std::string* error) {
  std::ifstream file(path, std::ios::binary);
  if (!file) {
    set_error(error, "cannot open '" + path + "'");
    return false;
  }
  bytes->assign(std::istreambuf_iterator<char>(file),
                std::istreambuf_iterator<char>());
  return true;
}

}  // namespace

bool validate(const std::string& path, std::string* error) {
  std::vector<std::uint8_t> bytes;
  const std::uint8_t* payload = nullptr;
  std::size_t payload_size = 0;
  return read_whole_file(path, &bytes, error) &&
         verify_container(path, bytes, &payload, &payload_size, error);
}

std::optional<StoreImage> load(const std::string& path, std::string* error) {
  std::vector<std::uint8_t> bytes;
  const std::uint8_t* payload = nullptr;
  std::size_t payload_size = 0;
  if (!read_whole_file(path, &bytes, error) ||
      !verify_container(path, bytes, &payload, &payload_size, error)) {
    return std::nullopt;
  }

  Reader r{payload, payload_size};
  StoreImage image;
  const auto n_controllers = r.get<std::uint32_t>();
  for (std::uint32_t i = 0; r.ok && i < n_controllers; ++i) {
    ControllerState c;
    c.type_id = r.get<std::uint32_t>();
    c.steady = r.get<std::uint8_t>() != 0;
    c.p = bits_double(r.get<std::uint64_t>());
    c.trained_tasks = r.get<std::uint64_t>();
    image.controllers.push_back(c);
  }
  const auto n_l1 = r.get<std::uint64_t>();
  const auto n_l2 = r.get<std::uint64_t>();
  for (std::uint64_t i = 0; r.ok && i < n_l1; ++i) {
    MemoEntry e;
    if (!read_entry(&r, &e)) break;
    image.l1.push_back(std::move(e));
  }
  for (std::uint64_t i = 0; r.ok && i < n_l2; ++i) {
    MemoEntry e;
    if (!read_entry(&r, &e)) break;
    image.l2.push_back(std::move(e));
  }
  if (!r.ok || image.l1.size() != n_l1 || image.l2.size() != n_l2 ||
      r.pos != r.size) {
    set_error(error, "'" + path + "' payload is malformed");
    return std::nullopt;
  }
  return image;
}

}  // namespace atm::store
