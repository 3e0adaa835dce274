(** Parser for the affine input language — the front end that turns
    textual loop nests (like the paper's Figure 1 example) into the
    polyhedral IR.

    Grammar (statements at any nesting depth):

    {v
    program := decl* stm*
    decl    := "param" ID ";"
             | "array" ID ("[" aff "]")+ ";"
    stm     := "for" "(" ID "=" aff ";" ID "<=" aff ";" ID "++" ")"
               "{" stm* "}"
             | ref ("=" | "+=") expr ";"
    ref     := ID ("[" aff "]")+
    aff     := affine expression over enclosing iterators, parameters
               and integer literals: +, -, and scaling by constants
    expr    := expression over refs, iterators, parameters and integers
               with + - * /, unary -, abs(e), min(e,e), max(e,e)
    v}

    [x += e] is sugar for [x = x + e] (the left-hand reference is also
    recorded as a read).  Schedules are assigned from syntactic
    position (2d+1 form). *)

exception Error of string
(** Parse or semantic error (non-affine subscript, unknown array,
    rank mismatch, ...), with line/column information. *)

val parse : string -> Emsc_ir.Prog.t
(** @raise Error *)
