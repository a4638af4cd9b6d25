#include "netlist/bench_io.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <sstream>
#include <unordered_map>

namespace tpi {
namespace {

std::string trim(std::string s) {
  const auto not_space = [](unsigned char ch) { return !std::isspace(ch); };
  s.erase(s.begin(), std::find_if(s.begin(), s.end(), not_space));
  s.erase(std::find_if(s.rbegin(), s.rend(), not_space).base(), s.end());
  return s;
}

std::string upper(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char ch) { return static_cast<char>(std::toupper(ch)); });
  return s;
}

struct Assignment {
  std::string lhs;
  std::string func;  // upper-case
  std::vector<std::string> args;
  int line = 0;
};

class BenchParser {
 public:
  BenchParser(const CellLibrary& lib, std::string design_name)
      : lib_(lib), nl_(std::make_unique<Netlist>(&lib, std::move(design_name))) {}

  BenchReadResult run(std::istream& in) {
    std::string line;
    int line_no = 0;
    while (std::getline(in, line)) {
      ++line_no;
      if (const auto hash = line.find('#'); hash != std::string::npos) line.resize(hash);
      line = trim(line);
      if (line.empty()) continue;
      if (!parse_line(line, line_no)) return fail();
    }
    if (!build()) return fail();
    BenchReadResult res;
    res.netlist = std::move(nl_);
    return res;
  }

 private:
  BenchReadResult fail() {
    BenchReadResult res;
    res.error = error_;
    return res;
  }

  bool parse_line(const std::string& line, int line_no) {
    const auto eq = line.find('=');
    if (eq == std::string::npos) {
      // INPUT(x) or OUTPUT(y)
      const auto open = line.find('(');
      const auto close = line.rfind(')');
      if (open == std::string::npos || close == std::string::npos || close < open) {
        return set_error(line_no, "malformed declaration: " + line);
      }
      const std::string kw = upper(trim(line.substr(0, open)));
      const std::string arg = trim(line.substr(open + 1, close - open - 1));
      if (kw == "INPUT") {
        inputs_.push_back(arg);
      } else if (kw == "OUTPUT") {
        outputs_.push_back(arg);
      } else {
        return set_error(line_no, "unknown declaration: " + kw);
      }
      return true;
    }
    Assignment a;
    a.lhs = trim(line.substr(0, eq));
    a.line = line_no;
    std::string rhs = trim(line.substr(eq + 1));
    const auto open = rhs.find('(');
    const auto close = rhs.rfind(')');
    if (open == std::string::npos || close == std::string::npos || close < open) {
      return set_error(line_no, "malformed assignment: " + line);
    }
    a.func = upper(trim(rhs.substr(0, open)));
    std::string args = rhs.substr(open + 1, close - open - 1);
    std::stringstream ss(args);
    std::string tok;
    while (std::getline(ss, tok, ',')) {
      tok = trim(tok);
      if (!tok.empty()) a.args.push_back(tok);
    }
    assigns_.push_back(std::move(a));
    return true;
  }

  bool set_error(int line_no, const std::string& msg) {
    error_ = "line " + std::to_string(line_no) + ": " + msg;
    return false;
  }

  // The parser's own name index over the nets it made (first net of a name
  // wins, like Netlist::find_net), so a parse stays linear in its size.
  NetId find_net(const std::string& name) const {
    const auto it = net_ids_.find(name);
    return it == net_ids_.end() ? kNoNet : it->second;
  }

  NetId add_net(const std::string& name) {
    const NetId n = nl_->add_net(name);
    net_ids_.emplace(name, n);
    return n;
  }

  int add_primary_input(const std::string& name) {
    const int pi = nl_->add_primary_input(name);
    net_ids_.emplace(name, nl_->pi_net(pi));
    return pi;
  }

  NetId net_for(const std::string& sig) {
    const NetId existing = find_net(sig);
    if (existing != kNoNet) return existing;
    return add_net(sig);
  }

  NetId clock_net() {
    if (clock_net_ == kNoNet) {
      // Reuse a declared CLK input (round-tripped netlists carry one).
      const NetId existing = find_net("CLK");
      if (existing != kNoNet && nl_->net(existing).driven_by_pi()) {
        nl_->mark_clock(nl_->net(existing).pi_index);
        clock_net_ = existing;
      } else {
        const int pi = add_primary_input("CLK");
        nl_->mark_clock(pi);
        clock_net_ = nl_->pi_net(pi);
      }
    }
    return clock_net_;
  }

  // Reduce `nets` to a single net using a balanced tree of 2-input gates.
  NetId tree_reduce(CellFunc two_in, const std::vector<NetId>& nets, const std::string& base) {
    const CellSpec* spec = lib_.gate(two_in, 2);
    std::vector<NetId> level = nets;
    int stage = 0;
    while (level.size() > 1) {
      std::vector<NetId> next;
      for (std::size_t i = 0; i + 1 < level.size(); i += 2) {
        const std::string name =
            base + "_t" + std::to_string(stage) + "_" + std::to_string(i / 2);
        const CellId c = nl_->add_cell(spec, name);
        nl_->connect(c, spec->find_pin("A"), level[i]);
        nl_->connect(c, spec->find_pin("B"), level[i + 1]);
        const NetId out = add_net(name + "_y");
        nl_->connect(c, spec->output_pin, out);
        next.push_back(out);
      }
      if (level.size() % 2) next.push_back(level.back());
      level = std::move(next);
      ++stage;
    }
    return level.front();
  }

  bool emit_gate(const Assignment& a) {
    std::vector<NetId> ins;
    ins.reserve(a.args.size());
    for (const auto& arg : a.args) ins.push_back(net_for(arg));
    const NetId out = net_for(a.lhs);

    auto place = [&](const CellSpec* spec, const std::vector<NetId>& pins) {
      const CellId c = nl_->add_cell(spec, a.lhs + "_g");
      static const char* kNames[] = {"A", "B", "C", "D"};
      for (std::size_t i = 0; i < pins.size(); ++i) {
        nl_->connect(c, spec->find_pin(kNames[i]), pins[i]);
      }
      nl_->connect(c, spec->output_pin, out);
      return true;
    };

    const std::string& f = a.func;
    const int n = static_cast<int>(ins.size());
    if (f == "DFF" || f == "SDFF" || f == "TSFF") {
      const char* cell_name = f == "DFF" ? "DFF_X1" : (f == "SDFF" ? "SDFF_X1" : "TSFF_X1");
      const CellSpec* spec = lib_.by_name(cell_name);
      const CellId c = nl_->add_cell(spec, a.lhs + "_ff");
      static const char* kFfPins[] = {"D", "TI", "TE", "TR"};
      for (std::size_t i = 0; i < ins.size() && i < 4; ++i) {
        nl_->connect(c, spec->find_pin(kFfPins[i]), ins[i]);
      }
      nl_->connect(c, spec->clock_pin, clock_net());
      nl_->connect(c, spec->output_pin, out);
      return true;
    }
    if (f == "CONST0" || f == "CONST1") {
      const CellSpec* spec = lib_.by_name(f == "CONST0" ? "TIE0" : "TIE1");
      const CellId c = nl_->add_cell(spec, a.lhs + "_tie");
      nl_->connect(c, spec->output_pin, out);
      return true;
    }
    if (f == "NOT" && n == 1) return place(lib_.gate(CellFunc::kInv, 1), ins);
    if ((f == "BUFF" || f == "BUF") && n == 1) return place(lib_.gate(CellFunc::kBuf, 1), ins);
    if (f == "MUX" && n == 3) {
      const CellSpec* spec = lib_.gate(CellFunc::kMux2, 2);
      const CellId c = nl_->add_cell(spec, a.lhs + "_g");
      nl_->connect(c, spec->find_pin("A"), ins[0]);
      nl_->connect(c, spec->find_pin("B"), ins[1]);
      nl_->connect(c, spec->find_pin("S"), ins[2]);
      nl_->connect(c, spec->output_pin, out);
      return true;
    }

    CellFunc func;
    CellFunc reduce_func;  // 2-input function for wide-gate decomposition
    bool invert_tail = false;
    if (f == "AND") {
      func = CellFunc::kAnd;
      reduce_func = CellFunc::kAnd;
    } else if (f == "NAND") {
      func = CellFunc::kNand;
      reduce_func = CellFunc::kAnd;
      invert_tail = true;
    } else if (f == "OR") {
      func = CellFunc::kOr;
      reduce_func = CellFunc::kOr;
    } else if (f == "NOR") {
      func = CellFunc::kNor;
      reduce_func = CellFunc::kOr;
      invert_tail = true;
    } else if (f == "XOR") {
      func = CellFunc::kXor;
      reduce_func = CellFunc::kXor;
    } else if (f == "XNOR") {
      func = CellFunc::kXnor;
      reduce_func = CellFunc::kXor;
      invert_tail = true;
    } else {
      return set_error(a.line, "unknown function " + f);
    }
    if (n == 1) return place(lib_.gate(CellFunc::kBuf, 1), ins);  // degenerate

    if (const CellSpec* direct = lib_.gate(func, n)) return place(direct, ins);

    // Wide gate: balanced 2-input reduction; fold the final inversion into
    // the last gate when the function is negated.
    std::vector<NetId> work = ins;
    NetId last_a = work[work.size() - 2];
    NetId last_b = work[work.size() - 1];
    work.resize(work.size() - 2);
    if (!work.empty()) {
      work.push_back(last_a);
      work.push_back(last_b);
      const NetId reduced = tree_reduce(reduce_func, work, a.lhs);
      work.clear();
      if (invert_tail) {
        const CellSpec* inv = lib_.gate(CellFunc::kInv, 1);
        const CellId c = nl_->add_cell(inv, a.lhs + "_g");
        nl_->connect(c, inv->find_pin("A"), reduced);
        nl_->connect(c, inv->output_pin, out);
        return true;
      }
      const CellSpec* buf = lib_.gate(CellFunc::kBuf, 1);
      const CellId c = nl_->add_cell(buf, a.lhs + "_g");
      nl_->connect(c, buf->find_pin("A"), reduced);
      nl_->connect(c, buf->output_pin, out);
      return true;
    }
    return set_error(a.line, "gate with no inputs: " + a.lhs);
  }

  bool build() {
    for (const auto& name : inputs_) {
      const int pi = add_primary_input(name);
      (void)pi;
    }
    for (const auto& a : assigns_) {
      const NetId lhs = find_net(a.lhs);
      if (lhs != kNoNet && nl_->net(lhs).driven_by_pi()) {
        return set_error(a.line, "signal " + a.lhs + " is both INPUT and assigned");
      }
      if (!emit_gate(a)) return false;
    }
    for (const auto& name : outputs_) {
      const NetId n = find_net(name);
      if (n == kNoNet) {
        error_ = "OUTPUT " + name + " is never defined";
        return false;
      }
      nl_->add_primary_output(name, n);
    }
    return true;
  }

  const CellLibrary& lib_;
  std::unique_ptr<Netlist> nl_;
  std::vector<std::string> inputs_;
  std::vector<std::string> outputs_;
  std::vector<Assignment> assigns_;
  std::unordered_map<std::string, NetId> net_ids_;
  NetId clock_net_ = kNoNet;
  std::string error_;
};

const char* bench_func(const CellSpec& spec) {
  switch (spec.func) {
    case CellFunc::kBuf:
    case CellFunc::kClkBuf:
      return "BUFF";
    case CellFunc::kInv: return "NOT";
    case CellFunc::kAnd: return "AND";
    case CellFunc::kNand: return "NAND";
    case CellFunc::kOr: return "OR";
    case CellFunc::kNor: return "NOR";
    case CellFunc::kXor: return "XOR";
    case CellFunc::kXnor: return "XNOR";
    case CellFunc::kMux2: return "MUX";
    case CellFunc::kDff: return "DFF";
    case CellFunc::kSdff: return "SDFF";
    case CellFunc::kTsff: return "TSFF";
    case CellFunc::kTie0: return "CONST0";
    case CellFunc::kTie1: return "CONST1";
    case CellFunc::kFiller: return nullptr;
  }
  return nullptr;
}

}  // namespace

BenchReadResult read_bench(std::istream& in, const CellLibrary& lib, std::string design_name) {
  BenchParser parser(lib, std::move(design_name));
  return parser.run(in);
}

BenchReadResult read_bench_string(const std::string& text, const CellLibrary& lib,
                                  std::string design_name) {
  std::istringstream in(text);
  return read_bench(in, lib, std::move(design_name));
}

BenchReadResult read_bench_file(const std::string& path, const CellLibrary& lib) {
  std::ifstream in(path);
  if (!in) {
    BenchReadResult res;
    res.error = "cannot open " + path;
    return res;
  }
  std::string name = path;
  if (const auto slash = name.find_last_of('/'); slash != std::string::npos) {
    name = name.substr(slash + 1);
  }
  if (const auto dot = name.find_last_of('.'); dot != std::string::npos) name.resize(dot);
  return read_bench(in, lib, name);
}

void write_bench(const Netlist& nl, std::ostream& out) {
  out << "# " << nl.name() << " (" << nl.library().name() << ")\n";
  for (std::size_t i = 0; i < nl.num_pis(); ++i) {
    out << "INPUT(" << nl.pi_name(static_cast<int>(i)) << ")\n";
  }
  // OUTPUT() references the *net* feeding the port: that is the name the
  // reader can resolve against assignments.
  for (std::size_t i = 0; i < nl.num_pos(); ++i) {
    out << "OUTPUT(" << nl.net(nl.po_net(static_cast<int>(i))).name << ")\n";
  }
  for (std::size_t c = 0; c < nl.num_cells(); ++c) {
    const CellInst& inst = nl.cell(static_cast<CellId>(c));
    const char* func = bench_func(*inst.spec);
    if (func == nullptr) continue;  // filler
    const NetId onet = inst.output_net();
    if (onet == kNoNet) continue;
    out << nl.net(onet).name << " = " << func << "(";
    bool first = true;
    for (std::size_t p = 0; p < inst.spec->pins.size(); ++p) {
      const PinSpec& ps = inst.spec->pins[p];
      if (ps.dir != PinDir::kInput || ps.is_clock) continue;
      const NetId in_net = inst.conn[p];
      if (in_net == kNoNet) continue;
      if (!first) out << ", ";
      out << nl.net(in_net).name;
      first = false;
    }
    out << ")\n";
  }
  // POs that alias a PI or a net without a writer-visible driver still
  // round-trip because OUTPUT() references the net name directly.
}

std::string write_bench_string(const Netlist& nl) {
  std::ostringstream os;
  write_bench(nl, os);
  return os.str();
}

}  // namespace tpi
