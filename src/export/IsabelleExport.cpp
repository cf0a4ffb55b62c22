#include "export/IsabelleExport.h"

#include "support/Format.h"

#include <map>

namespace hglift::exporter {

using expr::Expr;
using expr::ExprContext;
using expr::ExprKind;
using expr::Opcode;
using hg::Edge;
using hg::FunctionResult;
using hg::VertexKey;
using pred::MemCell;
using pred::RangeClause;
using pred::RelOp;

namespace {

std::string sanitize(std::string S) {
  for (char &C : S)
    if (!isalnum(static_cast<unsigned char>(C)))
      C = '_';
  return S;
}

} // namespace

std::string isabelleTerm(const ExprContext &Ctx, const Expr *E) {
  switch (E->kind()) {
  case ExprKind::Const: {
    return "(" + std::to_string(E->constVal()) + " :: " +
           std::to_string(E->width()) + " word)";
  }
  case ExprKind::Var:
    return sanitize(Ctx.varInfo(E->varId()).Name);
  case ExprKind::Deref:
    return "(mem_read \\<sigma>\\<^sub>0 " +
           isabelleTerm(Ctx, E->derefAddr()) + " " +
           std::to_string(E->derefSize()) + ")";
  case ExprKind::Op:
    break;
  }

  auto A = [&](unsigned I) { return isabelleTerm(Ctx, E->operand(I)); };
  auto Bin = [&](const char *Op) {
    return "(" + A(0) + " " + Op + " " + A(1) + ")";
  };
  auto Fn = [&](const char *F) {
    std::string S = "(" + std::string(F);
    for (const Expr *Op : E->operands()) {
      S += " ";
      S += isabelleTerm(Ctx, Op);
    }
    return S + ")";
  };

  switch (E->opcode()) {
  case Opcode::Add:
    return Bin("+");
  case Opcode::Sub:
    return Bin("-");
  case Opcode::Mul:
    return Bin("*");
  case Opcode::UDiv:
    return Bin("div");
  case Opcode::URem:
    return Bin("mod");
  case Opcode::SDiv:
    return Fn("sdiv");
  case Opcode::SRem:
    return Fn("smod");
  case Opcode::And:
    return Bin("AND");
  case Opcode::Or:
    return Bin("OR");
  case Opcode::Xor:
    return Bin("XOR");
  case Opcode::Shl:
    return "(push_bit (unat " + A(1) + ") " + A(0) + ")";
  case Opcode::LShr:
    return "(drop_bit (unat " + A(1) + ") " + A(0) + ")";
  case Opcode::AShr:
    return "(signed_drop_bit (unat " + A(1) + ") " + A(0) + ")";
  case Opcode::Not:
    return Fn("NOT");
  case Opcode::Neg:
    return "(- " + A(0) + ")";
  case Opcode::ZExt:
    return "(ucast " + A(0) + " :: " + std::to_string(E->width()) + " word)";
  case Opcode::SExt:
    return "(scast " + A(0) + " :: " + std::to_string(E->width()) + " word)";
  case Opcode::Trunc:
    return "(ucast " + A(0) + " :: " + std::to_string(E->width()) + " word)";
  case Opcode::Eq:
    return "(if " + A(0) + " = " + A(1) + " then 1 else 0 :: 1 word)";
  case Opcode::Ne:
    return "(if " + A(0) + " \\<noteq> " + A(1) + " then 1 else 0 :: 1 word)";
  case Opcode::ULt:
    return "(if " + A(0) + " < " + A(1) + " then 1 else 0 :: 1 word)";
  case Opcode::ULe:
    return "(if " + A(0) + " \\<le> " + A(1) + " then 1 else 0 :: 1 word)";
  case Opcode::SLt:
    return "(if " + A(0) + " <s " + A(1) + " then 1 else 0 :: 1 word)";
  case Opcode::SLe:
    return "(if " + A(0) + " \\<le>s " + A(1) + " then 1 else 0 :: 1 word)";
  case Opcode::Ite:
    return "(if " + A(0) + " = 1 then " + A(1) + " else " + A(2) + ")";
  }
  return "undefined";
}

std::string isabellePred(const ExprContext &Ctx, const pred::Pred &P) {
  if (P.isBottom())
    return "False";
  std::vector<std::string> Conjuncts;
  for (unsigned I = 0; I < x86::NumGPRs; ++I) {
    const Expr *V = P.reg64(x86::regFromNum(I));
    if (!V)
      continue;
    Conjuncts.push_back("regs \\<sigma> ''" +
                        x86::regName(x86::regFromNum(I)) +
                        "'' = " + isabelleTerm(Ctx, V));
  }
  for (const MemCell &C : P.cells())
    Conjuncts.push_back("mem_read \\<sigma> " + isabelleTerm(Ctx, C.Addr) +
                        " " + std::to_string(C.Size) + " = " +
                        isabelleTerm(Ctx, C.Val));
  for (const RangeClause &C : P.ranges()) {
    std::string Rel;
    bool Signed = false;
    switch (C.Op) {
    case RelOp::Eq:
      Rel = "=";
      break;
    case RelOp::Ne:
      Rel = "\\<noteq>";
      break;
    case RelOp::ULt:
      Rel = "<";
      break;
    case RelOp::ULe:
      Rel = "\\<le>";
      break;
    case RelOp::UGe:
      Rel = "\\<ge>";
      break;
    case RelOp::UGt:
      Rel = ">";
      break;
    case RelOp::SLt:
      Rel = "<s";
      Signed = true;
      break;
    case RelOp::SLe:
      Rel = "\\<le>s";
      Signed = true;
      break;
    case RelOp::SGe:
      Rel = "\\<ge>s";
      Signed = true;
      break;
    case RelOp::SGt:
      Rel = ">s";
      Signed = true;
      break;
    }
    static_cast<void>(Signed);
    Conjuncts.push_back(isabelleTerm(Ctx, C.E) + " " + Rel + " " +
                        std::to_string(C.Bound));
  }
  if (Conjuncts.empty())
    return "True";
  std::string S;
  for (size_t I = 0; I < Conjuncts.size(); ++I) {
    if (I)
      S += " \\<and>\n     ";
    S += Conjuncts[I];
  }
  return S;
}

std::string exportFunction(const FunctionResult &F,
                           const IsabelleOptions &Opts) {
  std::string Out;
  std::string FName = "f_" + hexStr(F.Entry).substr(2);

  // Vertex invariant definitions.
  std::map<VertexKey, std::string> VName;
  unsigned N = 0;
  for (const auto &[Key, V] : F.Graph.Vertices) {
    std::string Name =
        "P_" + FName + "_" + hexStr(Key.Rip).substr(2) + "_" +
        std::to_string(N++);
    VName[Key] = Name;
    Out += "definition " + Name + " :: \"state \\<Rightarrow> bool\" where\n";
    Out += "  \"" + Name + " \\<sigma> \\<equiv>\n     " +
           isabellePred(F.ctx(), V.State.P) + "\"\n\n";
  }

  // One lemma per edge: {P_from} instr {P_to}.
  unsigned L = 0;
  for (const Edge &E : F.Graph.edges()) {
    std::string From = VName.count(E.From) ? VName[E.From] : "\\<top>";
    std::string To;
    if (E.To.Rip == hg::RetTargetRip)
      To = "(\\<lambda>\\<sigma>. RIP \\<sigma> = " +
           sanitize("S_" + hexStr(F.Entry)) + ")";
    else if (E.To.Rip == hg::UnresolvedTargetRip)
      To = "\\<top>  (* unresolved indirection: annotated *)";
    else if (VName.count(E.To))
      To = VName[E.To];
    else {
      // The target vertex was joined away; the postcondition is the
      // disjunction of all invariants at the target address.
      To = "(\\<lambda>\\<sigma>. ";
      bool First = true;
      for (const auto &[Key, V] : F.Graph.Vertices)
        if (Key.Rip == E.To.Rip) {
          if (!First)
            To += " \\<or> ";
          To += VName[Key] + " \\<sigma>";
          First = false;
        }
      To += First ? "True)" : ")";
    }
    Out += "lemma " + FName + "_edge_" + std::to_string(L++) + ":\n";
    Out += "  \"\\<lbrace>" + From + "\\<rbrace>\n";
    Out += "     " + hexStr(E.Instr.Addr) + ": " + E.Instr.str() + "\n";
    Out += "   \\<lbrace>" + To + "\\<rbrace>\"\n";
    Out += "  by " + Opts.ProofMethod + "\n\n";
  }
  return Out;
}

std::string exportBinary(const hg::BinaryResult &B,
                         const IsabelleOptions &Opts, size_t *NumLemmas) {
  std::string Out;
  Out += "theory " + sanitize(Opts.TheoryName) + "\n";
  Out += "  imports X86_Semantics.X86_Parse X86_Semantics.SymbolicExecution\n";
  Out += "begin\n\n";
  Out += "(* Generated by hglift: one invariant definition per symbolic\n";
  Out += "   state, one Hoare-triple lemma per edge of the Hoare Graph.\n";
  Out += "   Binary: " + B.Name + " *)\n\n";

  size_t Lemmas = 0;
  for (const FunctionResult &F : B.Functions) {
    if (F.Outcome != hg::LiftOutcome::Lifted)
      continue;
    Out += "section \\<open>function at " + hexStr(F.Entry) + "\\<close>\n\n";
    Out += exportFunction(F, Opts);
    Lemmas += F.Graph.edges().size();
  }

  // Proof obligations become explicit assumptions (§5.2: "each and any
  // implicit assumption made during HG generation is formalized").
  auto Obls = B.allObligations();
  if (!Obls.empty()) {
    Out += "section \\<open>assumptions / proof obligations\\<close>\n\n";
    unsigned N = 0;
    for (const std::string &O : Obls) {
      Out += "(* obligation " + std::to_string(N++) + ": " + O + " *)\n";
    }
    Out += "\n";
  }

  Out += "end\n";
  if (NumLemmas)
    *NumLemmas = Lemmas;
  return Out;
}

} // namespace hglift::exporter
