// The simulator's message payload: one C++ value of any copyable type,
// carried by value with its bandwidth cost declared separately
// (Message::bits; see network.hpp).
//
// Payload is a two-word type-erased box tuned for the per-message path.
// Trivially copyable values of at most 8 bytes — node ids, flood / report /
// adopt messages, class ids, verdict words — live inline in the slot, so
// copy, move and destroy are a 16-byte copy or nothing, with no indirect
// call and no allocation. Every other value (tables, bags, fragment
// envelopes) lives on the heap behind the same slot and is cloned and
// destroyed through its type's descriptor.
//
// Each stored type T has exactly one constexpr descriptor,
// kPayloadType<T>. A type check is a pointer compare against it, so a
// failed cast (a wrong guess) is as cheap as a successful one. The
// descriptor also exposes std::type_info for the wire-codec registry
// (wire.hpp) and for diagnostics.
#pragma once

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <typeinfo>
#include <utility>

namespace dmc::congest {

/// Static description of one payload type. `clone` / `destroy` are null
/// for inline types, which need neither.
struct PayloadType {
  const std::type_info* info;
  void* (*clone)(const void*);
  void (*destroy)(void*);

  bool stored_inline() const { return clone == nullptr; }
};

namespace detail {

inline constexpr std::size_t kPayloadSlotBytes = 8;

template <typename T>
inline constexpr bool kPayloadInline =
    std::is_trivially_copyable_v<T> && sizeof(T) <= kPayloadSlotBytes &&
    alignof(T) <= alignof(void*);

template <typename T>
void* payload_clone(const void* p) {
  return new T(*static_cast<const T*>(p));
}

template <typename T>
void payload_destroy(void* p) {
  delete static_cast<T*>(p);
}

}  // namespace detail

template <typename T>
inline constexpr PayloadType kPayloadType =
    detail::kPayloadInline<T>
        ? PayloadType{&typeid(T), nullptr, nullptr}
        : PayloadType{&typeid(T), &detail::payload_clone<T>,
                      &detail::payload_destroy<T>};

/// Thrown by Payload::get<T>() when the payload does not hold a T.
class BadPayloadCast : public std::bad_cast {
 public:
  const char* what() const noexcept override {
    return "congest::Payload: value is not of the requested type";
  }
};

class Payload {
 public:
  Payload() noexcept = default;

  /// Implicit, so Message(FloodMsg{...}, bits) boxes the value.
  template <typename V, typename T = std::decay_t<V>,
            typename = std::enable_if_t<!std::is_same_v<T, Payload>>>
  Payload(V&& value) : type_(&kPayloadType<T>) {
    static_assert(std::is_copy_constructible_v<T>,
                  "payload types must be copyable");
    if constexpr (detail::kPayloadInline<T>) {
      ::new (static_cast<void*>(slot_)) T(std::forward<V>(value));
    } else {
      heap_ = new T(std::forward<V>(value));
    }
  }

  Payload(const Payload& other) : type_(other.type_) {
    if (type_ != nullptr && !type_->stored_inline())
      heap_ = type_->clone(other.heap_);
    else
      std::memcpy(slot_, other.slot_, sizeof slot_);
  }

  Payload(Payload&& other) noexcept : type_(other.type_) {
    std::memcpy(slot_, other.slot_, sizeof slot_);
    other.type_ = nullptr;
  }

  Payload& operator=(const Payload& other) {
    if (this != &other) *this = Payload(other);
    return *this;
  }

  Payload& operator=(Payload&& other) noexcept {
    if (this != &other) {
      reset();
      type_ = other.type_;
      std::memcpy(slot_, other.slot_, sizeof slot_);
      other.type_ = nullptr;
    }
    return *this;
  }

  ~Payload() { reset(); }

  void reset() noexcept {
    if (type_ != nullptr && !type_->stored_inline()) type_->destroy(heap_);
    type_ = nullptr;
  }

  bool has_value() const noexcept { return type_ != nullptr; }
  /// The held value's type; typeid(void) when empty.
  const std::type_info& type() const noexcept {
    return type_ != nullptr ? *type_->info : typeid(void);
  }
  /// The held value's descriptor, or null when empty.
  const PayloadType* descriptor() const noexcept { return type_; }

  /// Pointer to the held T, or null when the payload holds anything else.
  template <typename T>
  const T* get_if() const noexcept {
    using U = std::remove_cv_t<T>;
    if (type_ != &kPayloadType<U>) return nullptr;
    if constexpr (detail::kPayloadInline<U>)
      return std::launder(reinterpret_cast<const U*>(slot_));
    else
      return static_cast<const U*>(heap_);
  }
  template <typename T>
  T* get_if() noexcept {
    return const_cast<T*>(std::as_const(*this).template get_if<T>());
  }

  /// The held T; throws BadPayloadCast when the payload holds anything else.
  template <typename T>
  const T& get() const {
    const T* p = get_if<T>();
    if (p == nullptr) throw BadPayloadCast();
    return *p;
  }
  template <typename T>
  T& get() {
    return const_cast<T&>(std::as_const(*this).template get<T>());
  }

 private:
  const PayloadType* type_ = nullptr;
  union {
    void* heap_;
    alignas(void*) unsigned char slot_[detail::kPayloadSlotBytes] = {};
  };
};

static_assert(sizeof(Payload) == 2 * sizeof(void*));

}  // namespace dmc::congest
