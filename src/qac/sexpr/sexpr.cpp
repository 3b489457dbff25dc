#include "qac/sexpr/sexpr.h"

#include <cctype>
#include <iterator>

#include "qac/util/logging.h"

namespace qac::sexpr {

Node
Node::atom(std::string text)
{
    Node n;
    n.kind_ = Kind::Atom;
    n.text_ = std::move(text);
    return n;
}

Node
Node::string(std::string text)
{
    Node n;
    n.kind_ = Kind::String;
    n.text_ = std::move(text);
    return n;
}

Node
Node::list(std::vector<Node> items)
{
    Node n;
    n.kind_ = Kind::List;
    n.items_ = std::move(items);
    return n;
}

const std::string &
Node::text() const
{
    if (kind_ == Kind::List)
        panic("sexpr: text() called on a list node");
    return text_;
}

const std::vector<Node> &
Node::items() const
{
    if (kind_ != Kind::List)
        panic("sexpr: items() called on an atom node");
    return items_;
}

std::vector<Node> &
Node::items()
{
    if (kind_ != Kind::List)
        panic("sexpr: items() called on an atom node");
    return items_;
}

void
Node::append(Node child)
{
    items().push_back(std::move(child));
}

std::string
Node::head() const
{
    if (!isList() || items_.empty() || !items_[0].isAtom())
        return "";
    return items_[0].text_;
}

bool
Node::operator==(const Node &other) const
{
    if (kind_ != other.kind_)
        return false;
    if (kind_ == Kind::List)
        return items_ == other.items_;
    return text_ == other.text_;
}

namespace {

void
escapeString(const std::string &s, std::string &out)
{
    out += '"';
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    out += '"';
}

} // namespace

void
Node::print(std::string &out, bool pretty, int depth) const
{
    switch (kind_) {
      case Kind::Atom:
        out += text_;
        return;
      case Kind::String:
        escapeString(text_, out);
        return;
      case Kind::List:
        break;
    }
    // Small leaf lists print on one line; larger lists get one child per
    // line, which matches the shape of Yosys EDIF output and makes the
    // "lines of EDIF" metric of the paper's Section 6.1 meaningful.
    bool leaf = true;
    for (const Node &n : items_)
        if (n.isList() && n.items_.size() > 3)
            leaf = false;
    if (items_.size() > 6)
        leaf = false;
    out += '(';
    for (size_t i = 0; i < items_.size(); ++i) {
        if (i) {
            if (pretty && !leaf) {
                out += '\n';
                out.append(static_cast<size_t>(depth + 1) * 2, ' ');
            } else {
                out += ' ';
            }
        }
        items_[i].print(out, pretty, depth + 1);
    }
    out += ')';
}

std::string
Node::toString(bool pretty) const
{
    std::string out;
    print(out, pretty, 0);
    return out;
}

namespace {

/**
 * Deepest list nesting the reader accepts.  EDIF nests about ten deep;
 * the bound keeps hostile input (EDIF stored in a .qo, say) from
 * overflowing the stack of the recursive descent.
 */
constexpr size_t kMaxDepth = 1000;

/** Recursive-descent s-expression reader. */
class Reader
{
  public:
    explicit Reader(const std::string &src) : src_(src) {}

    bool
    atEnd()
    {
        skipSpace();
        return pos_ >= src_.size();
    }

    Node
    readNode()
    {
        skipSpace();
        if (pos_ >= src_.size())
            fail("unexpected end of input");
        char c = src_[pos_];
        if (c == '(')
            return readList();
        if (c == ')')
            fail("unbalanced ')'");
        if (c == '"')
            return readString();
        return readAtom();
    }

  private:
    /** Fatal with the 1-based line and column of the current position. */
    [[noreturn]] void
    fail(const std::string &msg)
    {
        size_t line = 1, col = 1;
        for (size_t i = 0; i < pos_ && i < src_.size(); ++i) {
            if (src_[i] == '\n') {
                ++line;
                col = 1;
            } else {
                ++col;
            }
        }
        fatal("sexpr parse error at line %zu, column %zu: %s", line, col,
              msg.c_str());
    }

    static bool
    isSpace(char c)
    {
        return std::isspace(static_cast<unsigned char>(c));
    }

    void
    skipSpace()
    {
        while (pos_ < src_.size() && isSpace(src_[pos_]))
            ++pos_;
    }

    Node
    readList()
    {
        if (depth_ == kMaxDepth)
            fail(format("lists nested deeper than %zu", kMaxDepth));
        ++depth_;
        ++pos_; // consume '('
        // Children collect on a stack shared by every open list, so
        // each list allocates its item vector once, at its final size.
        const size_t mark = pending_.size();
        while (true) {
            skipSpace();
            if (pos_ >= src_.size())
                fail("unterminated list");
            if (src_[pos_] == ')') {
                ++pos_;
                --depth_;
                auto first = pending_.begin() + static_cast<long>(mark);
                std::vector<Node> items(std::make_move_iterator(first),
                                        std::make_move_iterator(
                                            pending_.end()));
                pending_.erase(first, pending_.end());
                return Node::list(std::move(items));
            }
            Node child = readNode();
            pending_.push_back(std::move(child));
        }
    }

    Node
    readString()
    {
        ++pos_; // consume '"'
        std::string text;
        while (true) {
            size_t run = src_.find_first_of("\"\\", pos_);
            if (run == std::string::npos) {
                pos_ = src_.size();
                fail("unterminated string");
            }
            text.append(src_, pos_, run - pos_);
            pos_ = run;
            if (src_[pos_] == '"') {
                ++pos_;
                return Node::string(std::move(text));
            }
            ++pos_; // consume '\\'
            if (pos_ >= src_.size())
                fail("dangling escape");
            text += src_[pos_++];
        }
    }

    Node
    readAtom()
    {
        size_t start = pos_;
        while (pos_ < src_.size()) {
            char c = src_[pos_];
            if (isSpace(c) || c == '(' || c == ')' || c == '"')
                break;
            ++pos_;
        }
        return Node::atom(src_.substr(start, pos_ - start));
    }

    const std::string &src_;
    size_t pos_ = 0;
    size_t depth_ = 0;
    std::vector<Node> pending_;
};

} // namespace

Node
parse(const std::string &src)
{
    Reader r(src);
    Node n = r.readNode();
    if (!r.atEnd())
        fatal("sexpr: trailing content after top-level expression");
    return n;
}

std::vector<Node>
parseAll(const std::string &src)
{
    Reader r(src);
    std::vector<Node> out;
    while (!r.atEnd())
        out.push_back(r.readNode());
    return out;
}

} // namespace qac::sexpr
