// A minimal JSON reader for tests, just rich enough to validate the
// exporters' and bench writers' output structurally (objects, arrays,
// strings, numbers, bools, null). Parse errors fail the calling test.
#pragma once

#include <gtest/gtest.h>

#include <cctype>
#include <map>
#include <string>
#include <vector>

namespace rtr::test {

struct Json {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool b = false;
  double num = 0.0;
  std::string str;
  std::vector<Json> arr;
  std::map<std::string, Json> obj;

  [[nodiscard]] const Json& at(const std::string& key) const {
    const auto it = obj.find(key);
    EXPECT_NE(it, obj.end()) << "missing key: " << key;
    static const Json null_json;
    return it == obj.end() ? null_json : it->second;
  }
  [[nodiscard]] bool has(const std::string& key) const {
    return obj.count(key) != 0;
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : s_(text) {}

  Json parse() {
    const Json v = value();
    skip_ws();
    EXPECT_EQ(pos_, s_.size()) << "trailing garbage after JSON value";
    EXPECT_FALSE(failed_) << "JSON parse error at offset " << pos_;
    return v;
  }

 private:
  void skip_ws() {
    while (pos_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[pos_]))) ++pos_;
  }
  bool eat(char c) {
    skip_ws();
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  Json value() {
    skip_ws();
    if (pos_ >= s_.size()) return fail();
    const char c = s_[pos_];
    if (c == '{') return object();
    if (c == '[') return array();
    if (c == '"') return string_value();
    if (c == 't' || c == 'f') return boolean();
    if (c == 'n') return null_value();
    return number();
  }
  Json object() {
    Json v;
    v.kind = Json::Kind::kObject;
    eat('{');
    if (eat('}')) return v;
    do {
      skip_ws();
      Json key = string_value();
      if (!eat(':')) return fail();
      v.obj[key.str] = value();
    } while (eat(','));
    if (!eat('}')) return fail();
    return v;
  }
  Json array() {
    Json v;
    v.kind = Json::Kind::kArray;
    eat('[');
    if (eat(']')) return v;
    do {
      v.arr.push_back(value());
    } while (eat(','));
    if (!eat(']')) return fail();
    return v;
  }
  Json string_value() {
    Json v;
    v.kind = Json::Kind::kString;
    if (!eat('"')) return fail();
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\' && pos_ + 1 < s_.size()) {
        ++pos_;
        switch (s_[pos_]) {
          case 'n': v.str += '\n'; break;
          case 't': v.str += '\t'; break;
          case 'u': pos_ += 4; v.str += '?'; break;  // tests don't need it
          default: v.str += s_[pos_];
        }
      } else {
        v.str += s_[pos_];
      }
      ++pos_;
    }
    if (!eat('"')) return fail();
    return v;
  }
  Json boolean() {
    Json v;
    v.kind = Json::Kind::kBool;
    if (s_.compare(pos_, 4, "true") == 0) {
      v.b = true;
      pos_ += 4;
    } else if (s_.compare(pos_, 5, "false") == 0) {
      pos_ += 5;
    } else {
      return fail();
    }
    return v;
  }
  Json null_value() {
    if (s_.compare(pos_, 4, "null") != 0) return fail();
    pos_ += 4;
    return Json{};
  }
  Json number() {
    Json v;
    v.kind = Json::Kind::kNumber;
    std::size_t end = pos_;
    while (end < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[end])) || s_[end] == '-' ||
            s_[end] == '+' || s_[end] == '.' || s_[end] == 'e' || s_[end] == 'E')) {
      ++end;
    }
    if (end == pos_) return fail();
    v.num = std::stod(s_.substr(pos_, end - pos_));
    pos_ = end;
    return v;
  }
  Json fail() {
    failed_ = true;
    pos_ = s_.size();
    return Json{};
  }

  std::string s_;
  std::size_t pos_ = 0;
  bool failed_ = false;
};

inline Json parse_json(const std::string& text) {
  return JsonParser{text}.parse();
}

}  // namespace rtr::test
