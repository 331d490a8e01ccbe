#include "assembler.hh"

#include <algorithm>
#include <array>
#include <cctype>
#include <charconv>
#include <climits>
#include <optional>
#include <span>
#include <string_view>
#include <unordered_map>

#include "common/bitops.hh"
#include "common/logging.hh"
#include "isa/isa.hh"

namespace cps
{

namespace
{

using std::string_view;

/** A parsed operand. A symbol's name views the source buffer. */
struct Operand
{
    enum class Kind : u8 { Gpr, Fpr, Imm, Sym, Mem };

    Kind kind = Kind::Imm;
    u8 reg = 0;       // Gpr/Fpr register number; Mem base register
    s64 value = 0;    // Imm value; Mem offset
    string_view sym;  // Sym name
};

using Operands = std::span<const Operand>;

/** What a statement's first word names, other than a machine operation. */
enum class Keyword : u8
{
    // Directives.
    Text, Data, Ignored, Word, Half, Byte, Space, Align, Ascii, Asciiz,
    // Pseudo-instructions.
    Nop, Move, Neg, Not, Li, La, B, Beqz, Bnez, Blt, Bge, Bgt, Ble,
    // A machine instruction; Stmt::op says which.
    Machine,
};

struct KeywordName
{
    string_view name;
    Keyword keyword;
};

constexpr KeywordName kKeywords[] = {
    {".text", Keyword::Text},
    {".data", Keyword::Data},
    // Accepted for compatibility; every label is exported anyway.
    {".globl", Keyword::Ignored},
    {".global", Keyword::Ignored},
    {".ent", Keyword::Ignored},
    {".end", Keyword::Ignored},
    {".word", Keyword::Word},
    {".half", Keyword::Half},
    {".byte", Keyword::Byte},
    {".space", Keyword::Space},
    {".align", Keyword::Align},
    {".ascii", Keyword::Ascii},
    {".asciiz", Keyword::Asciiz},
    {"nop", Keyword::Nop},
    {"move", Keyword::Move},
    {"neg", Keyword::Neg},
    {"not", Keyword::Not},
    {"li", Keyword::Li},
    {"la", Keyword::La},
    {"b", Keyword::B},
    {"beqz", Keyword::Beqz},
    {"bnez", Keyword::Bnez},
    {"blt", Keyword::Blt},
    {"bge", Keyword::Bge},
    {"bgt", Keyword::Bgt},
    {"ble", Keyword::Ble},
};

/** The directive or pseudo-instruction named @p name, if any. */
std::optional<Keyword>
findKeyword(string_view name)
{
    static const std::unordered_map<string_view, Keyword> table = [] {
        std::unordered_map<string_view, Keyword> m;
        for (const KeywordName &k : kKeywords)
            m.emplace(k.name, k.keyword);
        return m;
    }();
    auto it = table.find(name);
    if (it == table.end())
        return std::nullopt;
    return it->second;
}

/** The spelling of @p keyword, for error messages. */
std::string
keywordName(Keyword keyword)
{
    for (const KeywordName &k : kKeywords) {
        if (k.keyword == keyword)
            return std::string(k.name);
    }
    return "?";
}

/** One statement: lexed and parsed in pass 1, replayed in pass 2. */
struct Stmt
{
    int line = 0;
    Keyword keyword = Keyword::Machine;
    Op op = Op::Invalid;  // Keyword::Machine only
    u32 firstOperand = 0; // index into Assembler::operands_
    u32 numOperands = 0;
};

bool
isDigit(char c)
{
    return c >= '0' && c <= '9';
}

/** @p digits as a register number below @p limit (leading zeros allowed). */
std::optional<unsigned>
parseRegNumber(string_view digits, unsigned limit)
{
    unsigned v = 0;
    for (char c : digits) {
        if (!isDigit(c))
            return std::nullopt;
        v = std::min(v * 10 + static_cast<unsigned>(c - '0'), limit);
    }
    if (digits.empty() || v >= limit)
        return std::nullopt;
    return v;
}

/** The index of @p c in [a-z0-9], or -1. */
int
nameCharIndex(char c)
{
    if (c >= 'a' && c <= 'z')
        return c - 'a';
    if (isDigit(c))
        return 26 + (c - '0');
    return -1;
}

/** An integer register by conventional name ("$sp", "$t0", ...). */
std::optional<unsigned>
parseGprName(string_view t)
{
    // Every name but "$zero" is '$' and two of [a-z0-9]: a table
    // indexed by the pair holds register number + 1.
    static const std::array<u8, 36 * 36> pairs = [] {
        std::array<u8, 36 * 36> a{};
        for (unsigned i = 0; i < kNumGpr; ++i) {
            string_view n = gprName(i);
            if (n.size() == 3)
                a[nameCharIndex(n[1]) * 36 + nameCharIndex(n[2])] =
                    static_cast<u8>(i + 1);
        }
        return a;
    }();
    if (t.size() == 3) {
        int hi = nameCharIndex(t[1]);
        int lo = nameCharIndex(t[2]);
        if (hi >= 0 && lo >= 0 && pairs[hi * 36 + lo])
            return pairs[hi * 36 + lo] - 1u;
        return std::nullopt;
    }
    if (t == gprName(kRegZero))
        return kRegZero;
    return std::nullopt;
}

std::optional<unsigned>
parseGpr(string_view t)
{
    if (t.size() < 2 || t[0] != '$')
        return std::nullopt;
    if (isDigit(t[1]))
        return parseRegNumber(t.substr(1), kNumGpr);
    return parseGprName(t);
}

std::optional<unsigned>
parseFpr(string_view t)
{
    if (t.size() >= 3 && t[0] == '$' && t[1] == 'f' && isDigit(t[2]))
        return parseRegNumber(t.substr(2), kNumFpr);
    return std::nullopt;
}

/**
 * The whole of @p t as an integer, read the way strtoll() reads base 0:
 * leading white space, an optional sign, then hex ("0x"), octal
 * (leading "0") or decimal digits. Out-of-range values saturate.
 */
std::optional<s64>
parseNumber(string_view t)
{
    size_t i = 0;
    while (i < t.size() && std::isspace(static_cast<unsigned char>(t[i])))
        ++i;
    bool neg = false;
    if (i < t.size() && (t[i] == '+' || t[i] == '-'))
        neg = t[i++] == '-';
    int base = 10;
    if (i + 1 < t.size() && t[i] == '0' && (t[i + 1] | 0x20) == 'x') {
        base = 16;
        i += 2;
    } else if (i < t.size() && t[i] == '0') {
        base = 8;
    }
    u64 mag = 0;
    const char *end = t.data() + t.size();
    auto [stop, ec] = std::from_chars(t.data() + i, end, mag, base);
    if (stop != end || ec == std::errc::invalid_argument)
        return std::nullopt;
    const u64 limit = neg ? u64{1} << 63 : u64{LLONG_MAX};
    if (ec == std::errc::result_out_of_range || mag > limit)
        mag = limit;
    return neg ? static_cast<s64>(0 - mag) : static_cast<s64>(mag);
}

bool
isIdentStart(char c)
{
    return std::isalpha(static_cast<unsigned char>(c)) || c == '_' ||
           c == '.';
}

bool
isIdentChar(char c)
{
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
           c == '.' || c == '$';
}

bool
isBlank(char c)
{
    return c == ' ' || c == '\t' || c == '\r' || c == '\n';
}

string_view
trim(string_view s)
{
    size_t b = 0;
    size_t e = s.size();
    while (b < e && isBlank(s[b]))
        ++b;
    while (e > b && isBlank(s[e - 1]))
        --e;
    return s.substr(b, e - b);
}

/** @p text up to its first '#' outside a string literal. */
string_view
stripComment(string_view text)
{
    bool in_str = false;
    for (size_t i = 0; i < text.size(); ++i) {
        if (text[i] == '"' && (i == 0 || text[i - 1] != '\\'))
            in_str = !in_str;
        else if (text[i] == '#' && !in_str)
            return text.substr(0, i);
    }
    return text;
}

/**
 * Calls @p f on each trimmed comma-separated operand of @p ops, except
 * an empty last one; a comma inside a string literal does not split.
 * Stops, returning false, at the first call that returns false.
 */
template <typename F>
bool
forEachOperand(string_view ops, F &&f)
{
    bool in_str = false;
    size_t start = 0;
    for (size_t i = 0; i < ops.size(); ++i) {
        if (ops[i] == '"') {
            in_str = !in_str;
        } else if (ops[i] == ',' && !in_str) {
            if (!f(trim(ops.substr(start, i - start))))
                return false;
            start = i + 1;
        }
    }
    string_view last = trim(ops.substr(start));
    return last.empty() || f(last);
}

/** A directive operand: a number, or else a symbol resolved in pass 2. */
Operand
parseDatum(string_view t)
{
    Operand op;
    if (auto n = parseNumber(t)) {
        op.value = *n;
    } else {
        op.kind = Operand::Kind::Sym;
        op.sym = t;
    }
    return op;
}

/**
 * The assembler proper. Pass 1 lexes each line once into views of the
 * source, defines its labels, parses its operands and sizes it; pass 2
 * replays the parsed statements to emit them.
 */
class Assembler
{
  public:
    AsmResult
    run(string_view source)
    {
        pass1(source);
        if (result_.errors.empty())
            pass2();
        Program &prog = result_.program;
        prog.text.base = kTextBase;
        prog.data.base = kDataBase;
        exportSymbols();
        auto main_it = labels_.find("main");
        prog.entry = main_it != labels_.end() ? main_it->second : kTextBase;
        return std::move(result_);
    }

  private:
    enum class Section { Text, Data };

    std::vector<Stmt> stmts_;
    std::vector<Operand> operands_; // every statement's, in order
    std::unordered_map<string_view, Addr> labels_;
    AsmResult result_;

    // Location counters.
    Section section_ = Section::Text;
    Addr textPos_ = kTextBase;
    Addr dataPos_ = kDataBase;
    bool emitting_ = false; // pass 2?

    void
    error(int line, const std::string &msg)
    {
        result_.errors.push_back(strfmt("line %d: %s", line, msg.c_str()));
    }

    // ---------------------------------------------------------- passes

    void
    resetCounters()
    {
        section_ = Section::Text;
        textPos_ = kTextBase;
        dataPos_ = kDataBase;
    }

    Addr &pos() { return section_ == Section::Text ? textPos_ : dataPos_; }

    void
    pass1(string_view source)
    {
        emitting_ = false;
        resetCounters();
        // At most a statement a line, and an instruction has at most
        // three operands; generated code has a label every ~11 lines.
        const size_t lines =
            std::count(source.begin(), source.end(), '\n') + 1;
        stmts_.reserve(lines);
        operands_.reserve(3 * lines);
        labels_.reserve(lines / 8);
        int lineno = 0;
        size_t pos = 0;
        while (pos < source.size()) {
            size_t eol = source.find('\n', pos);
            if (eol == string_view::npos)
                eol = source.size();
            string_view text =
                trim(stripComment(source.substr(pos, eol - pos)));
            pos = eol + 1;
            ++lineno;
            if (text.empty())
                continue;
            text = defineLabels(lineno, text);
            if (!text.empty())
                parseStatement(lineno, text);
        }
    }

    void
    pass2()
    {
        emitting_ = true;
        result_.program.text.bytes.reserve(textPos_ - kTextBase);
        result_.program.data.bytes.reserve(dataPos_ - kDataBase);
        resetCounters();
        for (const Stmt &s : stmts_)
            execute(s);
    }

    /** Defines the labels leading @p text; @return the rest of it. */
    string_view
    defineLabels(int line, string_view text)
    {
        for (;;) {
            size_t colon = text.find(':');
            if (colon == string_view::npos)
                return text;
            string_view head = trim(text.substr(0, colon));
            if (head.empty() || !isIdentStart(head[0]) ||
                !std::all_of(head.begin(), head.end(), isIdentChar))
                return text;
            if (!labels_.try_emplace(head, pos()).second)
                error(line, "duplicate label '" + std::string(head) + "'");
            text = trim(text.substr(colon + 1));
        }
    }

    /** Parses the statement @p text, sizes it and keeps it for pass 2. */
    void
    parseStatement(int line, string_view text)
    {
        size_t sp = 0;
        while (sp < text.size() && text[sp] != ' ' && text[sp] != '\t')
            ++sp;
        string_view name = text.substr(0, sp);
        string_view ops = trim(text.substr(sp));
        Stmt s;
        s.line = line;
        s.firstOperand = static_cast<u32>(operands_.size());

        if (name[0] == '.') {
            auto keyword = findKeyword(name);
            if (!keyword) {
                error(line, "unknown directive '" + std::string(name) + "'");
                return;
            }
            s.keyword = *keyword;
            if (s.keyword == Keyword::Ascii || s.keyword == Keyword::Asciiz) {
                // The string runs from the first quote to the last, so
                // keep the operand text whole.
                Operand raw;
                raw.kind = Operand::Kind::Sym;
                raw.sym = ops;
                operands_.push_back(raw);
            } else {
                forEachOperand(ops, [this](string_view t) {
                    operands_.push_back(parseDatum(t));
                    return true;
                });
            }
        } else {
            bool parsed = forEachOperand(ops, [this, line](string_view t) {
                auto op = parseOperand(line, t);
                if (op)
                    operands_.push_back(*op);
                return op.has_value();
            });
            if (!parsed) {
                operands_.resize(s.firstOperand);
                return;
            }
            // No pseudo-instruction shares a machine mnemonic, so the
            // more common lookup goes first.
            if (auto op = opFromMnemonic(name)) {
                s.op = *op;
            } else if (auto keyword = findKeyword(name)) {
                s.keyword = *keyword;
            } else {
                error(line, "unknown mnemonic '" + std::string(name) + "'");
                operands_.resize(s.firstOperand);
                return;
            }
        }
        s.numOperands = static_cast<u32>(operands_.size() - s.firstOperand);
        execute(s);
        stmts_.push_back(s);
    }

    /** Sizes (pass 1) or emits (pass 2) one statement. */
    void
    execute(const Stmt &s)
    {
        Operands ops(operands_.data() + s.firstOperand, s.numOperands);
        switch (s.keyword) {
          case Keyword::Text:
            section_ = Section::Text;
            break;
          case Keyword::Data:
            section_ = Section::Data;
            break;
          case Keyword::Ignored:
            break;
          case Keyword::Word: case Keyword::Half: case Keyword::Byte:
          case Keyword::Space: case Keyword::Align: case Keyword::Ascii:
          case Keyword::Asciiz:
            directive(s, ops);
            break;
          case Keyword::Machine:
            encodeReal(s, ops);
            break;
          default:
            expandPseudo(s, ops);
            break;
        }
    }

    // ------------------------------------------------------- emission

    std::vector<u8> &
    segment()
    {
        return section_ == Section::Text ? result_.program.text.bytes
                                         : result_.program.data.bytes;
    }

    /**
     * Whether @p n more bytes keep the current section below its limit:
     * .text must end by kDataBase and .data by kStackTop. Reports the
     * error when they do not.
     */
    bool
    fits(const Stmt &s, u64 n)
    {
        const bool text = section_ == Section::Text;
        const Addr limit = text ? kDataBase : kStackTop;
        if (u64{pos()} + n <= limit)
            return true;
        error(s.line, strfmt("%s would run past 0x%08x",
                             text ? ".text" : ".data", limit));
        return false;
    }

    void
    putBytes(const Stmt &s, std::initializer_list<u8> bytes)
    {
        if (!fits(s, bytes.size()))
            return;
        if (emitting_) {
            std::vector<u8> &seg = segment();
            seg.insert(seg.end(), bytes);
        }
        pos() += static_cast<Addr>(bytes.size());
    }

    void
    putWord(const Stmt &s, u32 w)
    {
        putBytes(s, {static_cast<u8>(w), static_cast<u8>(w >> 8),
                     static_cast<u8>(w >> 16), static_cast<u8>(w >> 24)});
    }

    void
    putZeros(const Stmt &s, u64 n)
    {
        if (!fits(s, n))
            return;
        if (emitting_) {
            std::vector<u8> &seg = segment();
            seg.resize(seg.size() + n);
        }
        pos() += static_cast<Addr>(n);
    }

    /** Emits one encoded instruction word (and advances the counter). */
    void
    emitInst(const Stmt &s, const Inst &inst)
    {
        putWord(s, encode(inst));
    }

    // ------------------------------------------------------ directives

    void
    directive(const Stmt &s, Operands ops)
    {
        switch (s.keyword) {
          case Keyword::Word:
            for (const Operand &o : ops)
                putWord(s, static_cast<u32>(resolve(s, o).value_or(0)));
            break;
          case Keyword::Half:
            for (const Operand &o : ops) {
                u16 h = static_cast<u16>(resolve(s, o).value_or(0));
                putBytes(s, {static_cast<u8>(h), static_cast<u8>(h >> 8)});
            }
            break;
          case Keyword::Byte:
            for (const Operand &o : ops)
                putBytes(s, {static_cast<u8>(resolve(s, o).value_or(0))});
            break;
          case Keyword::Space:
            if (ops.empty() || ops[0].kind != Operand::Kind::Imm ||
                ops[0].value < 0) {
                error(s.line, ".space needs a non-negative size");
                return;
            }
            putZeros(s, static_cast<u64>(ops[0].value));
            break;
          case Keyword::Align: {
            if (ops.empty() || ops[0].kind != Operand::Kind::Imm ||
                ops[0].value < 0 || ops[0].value > 12) {
                error(s.line, ".align needs an exponent 0..12");
                return;
            }
            Addr align = 1u << ops[0].value;
            putZeros(s, (align - pos() % align) % align);
            break;
          }
          default: { // .ascii, .asciiz
            string_view raw = ops[0].sym;
            size_t b = raw.find('"');
            size_t e = raw.rfind('"');
            if (b == string_view::npos || e <= b) {
                error(s.line,
                      keywordName(s.keyword) + " needs a quoted string");
                return;
            }
            string_view body = raw.substr(b + 1, e - b - 1);
            for (size_t i = 0; i < body.size(); ++i) {
                char c = body[i];
                if (c == '\\' && i + 1 < body.size()) {
                    ++i;
                    switch (body[i]) {
                      case 'n': c = '\n'; break;
                      case 't': c = '\t'; break;
                      case '0': c = '\0'; break;
                      case '\\': c = '\\'; break;
                      case '"': c = '"'; break;
                      default: c = body[i]; break;
                    }
                }
                putBytes(s, {static_cast<u8>(c)});
            }
            if (s.keyword == Keyword::Asciiz)
                putBytes(s, {0});
            break;
          }
        }
    }

    // ---------------------------------------------------- instructions

    std::optional<Operand>
    parseOperand(int line, string_view t)
    {
        Operand op;
        if (auto g = parseGpr(t)) {
            op.kind = Operand::Kind::Gpr;
            op.reg = static_cast<u8>(*g);
            return op;
        }
        if (auto f = parseFpr(t)) {
            op.kind = Operand::Kind::Fpr;
            op.reg = static_cast<u8>(*f);
            return op;
        }
        // Memory operand: offset($reg)
        size_t lp = t.find('(');
        if (lp != string_view::npos && t.back() == ')') {
            string_view off = trim(t.substr(0, lp));
            string_view base = trim(t.substr(lp + 1, t.size() - lp - 2));
            auto reg = parseGpr(base);
            if (!reg) {
                error(line, "bad base register in '" + std::string(t) + "'");
                return std::nullopt;
            }
            s64 offval = 0;
            if (!off.empty()) {
                auto n = parseNumber(off);
                if (!n) {
                    error(line, "bad offset in '" + std::string(t) + "'");
                    return std::nullopt;
                }
                offval = *n;
            }
            op.kind = Operand::Kind::Mem;
            op.reg = static_cast<u8>(*reg);
            op.value = offval;
            return op;
        }
        if (auto n = parseNumber(t)) {
            op.kind = Operand::Kind::Imm;
            op.value = *n;
            return op;
        }
        if (!t.empty() && isIdentStart(t[0])) {
            op.kind = Operand::Kind::Sym;
            op.sym = t;
            return op;
        }
        error(line, "cannot parse operand '" + std::string(t) + "'");
        return std::nullopt;
    }

    static bool
    checkOperands(Operands ops, std::initializer_list<Operand::Kind> kinds)
    {
        if (ops.size() != kinds.size())
            return false;
        size_t i = 0;
        for (Operand::Kind k : kinds) {
            // Imm positions also accept symbols.
            bool cell_ok = ops[i].kind == k ||
                (k == Operand::Kind::Imm &&
                 ops[i].kind == Operand::Kind::Sym);
            if (!cell_ok)
                return false;
            ++i;
        }
        return true;
    }

    /** Resolves a symbol-or-immediate operand to a value. */
    std::optional<s64>
    resolve(const Stmt &s, const Operand &op)
    {
        if (op.kind == Operand::Kind::Imm)
            return op.value;
        if (op.kind == Operand::Kind::Sym) {
            // Symbols are only resolvable during pass 2.
            if (!emitting_)
                return 0;
            auto it = labels_.find(op.sym);
            if (it == labels_.end()) {
                error(s.line,
                      "undefined symbol '" + std::string(op.sym) + "'");
                return std::nullopt;
            }
            return it->second;
        }
        error(s.line, "expected immediate or symbol operand");
        return std::nullopt;
    }

    /** Computes a 16-bit branch displacement to @p target. */
    std::optional<u16>
    branchDisp(const Stmt &s, s64 target)
    {
        s64 delta = target - (static_cast<s64>(pos()) + 4);
        if (delta & 3) {
            error(s.line, "branch target not word aligned");
            return std::nullopt;
        }
        s64 words = delta >> 2;
        if (emitting_ && (words < -32768 || words > 32767)) {
            error(s.line, "branch target out of range");
            return std::nullopt;
        }
        return static_cast<u16>(words);
    }

    /** The displacement to the branch target operand @p op. */
    std::optional<u16>
    branchTo(const Stmt &s, const Operand &op)
    {
        auto v = resolve(s, op);
        if (!v)
            return std::nullopt;
        return branchDisp(s, *v);
    }

    void
    expandPseudo(const Stmt &s, Operands ops)
    {
        using K = Operand::Kind;

        auto gpr3 = [&](Op op, unsigned rd, unsigned rs, unsigned rt) {
            Inst i;
            i.op = op;
            i.rd = static_cast<u8>(rd);
            i.rs = static_cast<u8>(rs);
            i.rt = static_cast<u8>(rt);
            emitInst(s, i);
        };
        auto luiOri = [&](unsigned rt, u32 v) {
            Inst i;
            i.op = Op::Lui;
            i.rt = static_cast<u8>(rt);
            i.imm = static_cast<u16>(v >> 16);
            emitInst(s, i);
            Inst j;
            j.op = Op::Ori;
            j.rt = static_cast<u8>(rt);
            j.rs = static_cast<u8>(rt);
            j.imm = static_cast<u16>(v & 0xffff);
            emitInst(s, j);
        };

        switch (s.keyword) {
          case Keyword::Nop:
            putWord(s, kNopWord);
            break;

          case Keyword::Move:
            if (!checkOperands(ops, {K::Gpr, K::Gpr})) {
                error(s.line, "move needs 2 registers");
                return;
            }
            gpr3(Op::Addu, ops[0].reg, ops[1].reg, kRegZero);
            break;

          case Keyword::Neg:
            if (!checkOperands(ops, {K::Gpr, K::Gpr})) {
                error(s.line, "neg needs 2 registers");
                return;
            }
            gpr3(Op::Subu, ops[0].reg, kRegZero, ops[1].reg);
            break;

          case Keyword::Not:
            if (!checkOperands(ops, {K::Gpr, K::Gpr})) {
                error(s.line, "not needs 2 registers");
                return;
            }
            gpr3(Op::Nor, ops[0].reg, ops[1].reg, kRegZero);
            break;

          case Keyword::Li: {
            if (ops.size() != 2 || ops[0].kind != K::Gpr ||
                ops[1].kind != K::Imm) {
                error(s.line, "li needs register, constant");
                return;
            }
            s64 v = ops[1].value;
            Inst i;
            i.rt = ops[0].reg;
            i.rs = kRegZero;
            i.imm = static_cast<u16>(v);
            if (v >= -32768 && v <= 32767) {
                i.op = Op::Addiu;
                emitInst(s, i);
            } else if (v >= 0 && v <= 0xffff) {
                i.op = Op::Ori;
                emitInst(s, i);
            } else {
                luiOri(ops[0].reg, static_cast<u32>(v));
            }
            break;
          }

          case Keyword::La: {
            if (ops.size() != 2 || ops[0].kind != K::Gpr ||
                (ops[1].kind != K::Sym && ops[1].kind != K::Imm)) {
                error(s.line, "la needs register, symbol");
                return;
            }
            auto v = resolve(s, ops[1]);
            luiOri(ops[0].reg, static_cast<u32>(v.value_or(0)));
            break;
          }

          case Keyword::B: {
            if (ops.size() != 1) {
                error(s.line, "b needs a target");
                return;
            }
            auto disp = branchTo(s, ops[0]);
            if (!disp)
                return;
            Inst i;
            i.op = Op::Beq;
            i.rs = kRegZero;
            i.rt = kRegZero;
            i.imm = *disp;
            emitInst(s, i);
            break;
          }

          case Keyword::Beqz: case Keyword::Bnez: {
            if (ops.size() != 2 || ops[0].kind != K::Gpr) {
                error(s.line,
                      keywordName(s.keyword) + " needs register, target");
                return;
            }
            auto disp = branchTo(s, ops[1]);
            if (!disp)
                return;
            Inst i;
            i.op = s.keyword == Keyword::Beqz ? Op::Beq : Op::Bne;
            i.rs = ops[0].reg;
            i.rt = kRegZero;
            i.imm = *disp;
            emitInst(s, i);
            break;
          }

          default: { // blt, bge, bgt, ble
            if (ops.size() != 3 || ops[0].kind != K::Gpr ||
                ops[1].kind != K::Gpr) {
                error(s.line, keywordName(s.keyword) +
                                  " needs 2 registers and a target");
                return;
            }
            bool swap = s.keyword == Keyword::Bgt || s.keyword == Keyword::Ble;
            unsigned rs = swap ? ops[1].reg : ops[0].reg;
            unsigned rt = swap ? ops[0].reg : ops[1].reg;
            gpr3(Op::Slt, kRegAt, rs, rt);
            auto disp = branchTo(s, ops[2]);
            if (!disp)
                return;
            Inst i;
            i.op = s.keyword == Keyword::Blt || s.keyword == Keyword::Bgt
                       ? Op::Bne : Op::Beq;
            i.rs = kRegAt;
            i.rt = kRegZero;
            i.imm = *disp;
            emitInst(s, i);
            break;
          }
        }
    }

    void
    encodeReal(const Stmt &s, Operands ops)
    {
        using K = Operand::Kind;
        const Op op = s.op;
        Inst i;
        i.op = op;

        auto needs = [&](std::initializer_list<K> kinds) {
            if (checkOperands(ops, kinds))
                return true;
            error(s.line, strfmt("bad operands for '%s'", mnemonic(op)));
            return false;
        };

        switch (op) {
          case Op::Add: case Op::Addu: case Op::Sub: case Op::Subu:
          case Op::And: case Op::Or: case Op::Xor: case Op::Nor:
          case Op::Slt: case Op::Sltu: case Op::Mul: case Op::Mulu:
          case Op::Div: case Op::Divu: case Op::Rem: case Op::Remu:
            if (!needs({K::Gpr, K::Gpr, K::Gpr}))
                return;
            i.rd = ops[0].reg;
            i.rs = ops[1].reg;
            i.rt = ops[2].reg;
            break;

          // Variable shifts use MIPS operand order: value in rt, shift
          // amount in rs ("sllv rd, rt, rs").
          case Op::Sllv: case Op::Srlv: case Op::Srav:
            if (!needs({K::Gpr, K::Gpr, K::Gpr}))
                return;
            i.rd = ops[0].reg;
            i.rt = ops[1].reg;
            i.rs = ops[2].reg;
            break;

          case Op::Sll: case Op::Srl: case Op::Sra:
            if (!needs({K::Gpr, K::Gpr, K::Imm}))
                return;
            i.rd = ops[0].reg;
            i.rt = ops[1].reg;
            i.shamt = static_cast<u8>(ops[2].value & 31);
            break;

          case Op::Addi: case Op::Addiu: case Op::Slti: case Op::Sltiu:
          case Op::Andi: case Op::Ori: case Op::Xori:
            if (!needs({K::Gpr, K::Gpr, K::Imm}))
                return;
            i.rt = ops[0].reg;
            i.rs = ops[1].reg;
            i.imm = static_cast<u16>(ops[2].value);
            break;

          case Op::Lui:
            if (!needs({K::Gpr, K::Imm}))
                return;
            i.rt = ops[0].reg;
            i.imm = static_cast<u16>(ops[1].value);
            break;

          case Op::Lb: case Op::Lh: case Op::Lw: case Op::Lbu:
          case Op::Lhu: case Op::Sb: case Op::Sh: case Op::Sw:
            if (!needs({K::Gpr, K::Mem}))
                return;
            i.rt = ops[0].reg;
            i.rs = ops[1].reg;
            i.imm = static_cast<u16>(ops[1].value);
            break;

          case Op::Lwc1: case Op::Swc1:
            if (!needs({K::Fpr, K::Mem}))
                return;
            i.rt = ops[0].reg;
            i.rs = ops[1].reg;
            i.imm = static_cast<u16>(ops[1].value);
            break;

          case Op::J: case Op::Jal: {
            if (ops.size() != 1) {
                error(s.line, "j/jal need one target");
                return;
            }
            auto v = resolve(s, ops[0]);
            if (!v)
                return;
            if (*v & 3) {
                error(s.line, "jump target not word aligned");
                return;
            }
            i.target = static_cast<u32>(*v) >> 2;
            break;
          }

          case Op::Jr:
            if (!needs({K::Gpr}))
                return;
            i.rs = ops[0].reg;
            break;

          case Op::Jalr:
            if (ops.size() == 1 && ops[0].kind == K::Gpr) {
                i.rd = kRegRa;
                i.rs = ops[0].reg;
            } else if (needs({K::Gpr, K::Gpr})) {
                i.rd = ops[0].reg;
                i.rs = ops[1].reg;
            } else {
                return;
            }
            break;

          case Op::Beq: case Op::Bne: {
            if (!needs({K::Gpr, K::Gpr, K::Imm}))
                return;
            auto disp = branchTo(s, ops[2]);
            if (!disp)
                return;
            i.rs = ops[0].reg;
            i.rt = ops[1].reg;
            i.imm = *disp;
            break;
          }

          case Op::Blez: case Op::Bgtz: case Op::Bltz: case Op::Bgez: {
            if (!needs({K::Gpr, K::Imm}))
                return;
            auto disp = branchTo(s, ops[1]);
            if (!disp)
                return;
            i.rs = ops[0].reg;
            i.imm = *disp;
            break;
          }

          case Op::Bc1t: case Op::Bc1f: {
            if (ops.size() != 1) {
                error(s.line, "bc1t/bc1f need a target");
                return;
            }
            auto disp = branchTo(s, ops[0]);
            if (!disp)
                return;
            i.imm = *disp;
            break;
          }

          case Op::AddS: case Op::SubS: case Op::MulS: case Op::DivS:
            if (!needs({K::Fpr, K::Fpr, K::Fpr}))
                return;
            i.shamt = ops[0].reg;
            i.rd = ops[1].reg;
            i.rt = ops[2].reg;
            break;

          case Op::AbsS: case Op::NegS: case Op::MovS: case Op::CvtSW:
          case Op::CvtWS:
            if (!needs({K::Fpr, K::Fpr}))
                return;
            i.shamt = ops[0].reg;
            i.rd = ops[1].reg;
            break;

          case Op::CEqS: case Op::CLtS: case Op::CLeS:
            if (!needs({K::Fpr, K::Fpr}))
                return;
            i.rd = ops[0].reg;
            i.rt = ops[1].reg;
            break;

          case Op::Mtc1: case Op::Mfc1:
            if (!needs({K::Gpr, K::Fpr}))
                return;
            i.rt = ops[0].reg;
            i.rd = ops[1].reg;
            break;

          case Op::Syscall: case Op::Break:
            break;

          case Op::Invalid:
          case Op::kNumOps:
            error(s.line, "unencodable operation");
            return;
        }

        emitInst(s, i);
    }

    /** Copies the labels into Program::symbols, in key order. */
    void
    exportSymbols()
    {
        std::vector<std::pair<string_view, Addr>> sorted(labels_.begin(),
                                                         labels_.end());
        std::sort(sorted.begin(), sorted.end());
        std::map<std::string, Addr> &symbols = result_.program.symbols;
        for (const auto &[name, addr] : sorted)
            symbols.emplace_hint(symbols.end(), name, addr);
    }
};

} // namespace

AsmResult
assembleSource(const std::string &source)
{
    Assembler as;
    return as.run(source);
}

Program
assembleOrDie(const std::string &source)
{
    AsmResult res = assembleSource(source);
    if (!res.ok()) {
        for (const std::string &e : res.errors)
            std::fprintf(stderr, "asm error: %s\n", e.c_str());
        cps_fatal("assembly failed with %zu error(s)", res.errors.size());
    }
    return std::move(res.program);
}

} // namespace cps
