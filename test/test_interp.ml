(* Guest-language semantics: golden outputs for single-threaded programs run
   on the full pipeline (parse -> compile -> interpret on the simulator). *)

let check = Tutil.check_output

let test_arith () =
  check "integer arithmetic" "7\n-3\n10\n2\n1\n8\n"
    "puts 2 + 5\nputs 2 - 5\nputs 2 * 5\nputs 12 / 5\nputs 13 % 4\nputs 2 ** 3";
  check "ruby floor division" "-3\n2\n-2\n"
    "puts(-12 / 5)\nputs(-13 % 5)\nputs(13 % -5)";
  check "float arithmetic" "3.5\n1.25\n7.5\n"
    "puts 1.5 + 2.0\nputs 2.5 / 2\nputs 3 * 2.5";
  check "mixed comparison" "true\nfalse\ntrue\n" "puts 1 < 1.5\nputs 2.0 > 3\nputs 2 == 2.0"

let test_strings () =
  check "concat and length" "hello world\n11\n"
    {|s = "hello" + " " + "world"
puts s
puts s.length|};
  check "string methods" "HI\nhi\ntrue\n3\nlo wo\n"
    {|s = "hi"
puts s.upcase
puts "HI".downcase
puts "hello".include?("ell")
puts "hello".index("lo")
puts "hello world".slice(3, 5)|};
  check "split and join" "a-b-c\n3\n"
    {|parts = "a b c".split(" ")
puts parts.join("-")
puts parts.length|};
  check "append" "abc!\n" {|s = "abc"
s << "!"
puts s|};
  check "to_i to_f" "42\n-7\n3.5\n0\n"
    {|puts "42".to_i
puts "-7x".to_i
puts "3.5".to_f
puts "".to_i|}

let test_arrays () =
  check "literals and indexing" "1\n30\n\n3\n"
    {|a = [1, 20, 30]
puts a[0]
puts a[-1]
puts a[9]
puts a.length|};
  check "push pop shift" "4\n9\n1\n2\n"
    {|a = [1, 2, 3]
a << 9
puts a.length
puts a.pop
puts a.shift
puts a.length|};
  check "growth via assignment" "10\nnil check\n7\n"
    {|a = []
a[9] = 7
puts a.length
puts "nil check" if a[5] == nil
puts a[9]|};
  check "iteration helpers" "6\n3\n[2, 4, 6]\n"
    {|a = [1, 2, 3]
puts a.sum
puts a.max
p a.map { |x| x * 2 }|};
  check "sort" "[1, 2, 3]\n" "p [3, 1, 2].sort"

let test_hashes () =
  check "basic" "1\n2\n\ntrue\nfalse\n2\n"
    {|h = { :a => 1, "b" => 2 }
puts h[:a]
puts h["b"]
puts h[:missing]
puts h.key?(:a)
puts h.key?(:c)
puts h.size|};
  check "update and delete" "9\n1\n"
    {|h = {}
h[:x] = 9
puts h[:x]
h.delete(:x)
h[:y] = 1
puts h.size|};
  check "many keys force rehash" "100\n4950\n"
    {|h = {}
i = 0
while i < 100
  h[i] = i
  i += 1
end
puts h.size
s = 0
h.each { |k, v| s += v }
puts s|}

let test_control_flow () =
  check "if chain" "mid\n"
    {|x = 5
if x < 3
  puts "low"
elsif x < 8
  puts "mid"
else
  puts "high"
end|};
  check "while with break/next" "1\n3\n5\n7\n"
    {|i = 0
while true
  i += 1
  break if i > 8
  next if i % 2 == 0
  puts i
end|};
  check "until" "3\n" {|x = 0
until x == 3
  x += 1
end
puts x|};
  (* nil prints as an empty line, like Ruby's puts *)
  check "ternary and logic" "yes\n2\n\n"
    {|puts(1 < 2 ? "yes" : "no")
puts(nil || 2)
puts(nil && 2)|}

let test_methods () =
  check "recursion" "120\n"
    {|def fact(n)
  if n <= 1
    1
  else
    n * fact(n - 1)
  end
end
puts fact(5)|};
  check "implicit return of last expr" "3\n"
    {|def pick(a, b)
  if a > b
    a
  else
    b
  end
end
puts pick(1, 3)|};
  check "early return" "neg\n"
    {|def sign(x)
  return "neg" if x < 0
  "pos"
end
puts sign(-4)|}

let test_blocks_and_yield () =
  check "yield with value" "1\n4\n9\n"
    {|def each_square(n)
  i = 1
  while i <= n
    yield i * i
    i += 1
  end
end
each_square(3) { |sq| puts sq }|};
  check "block return value" "25\n"
    {|def apply(x)
  yield x
end
puts apply(5) { |v| v * v }|};
  check "closure over locals" "15\n"
    {|total = 0
[1, 2, 3, 4, 5].each { |x| total += x }
puts total|};
  check "break from block" "2\n"
    {|r = [1, 2, 3, 4].each do |x|
  break x if x == 2
end
puts r|};
  check "iterator prelude methods" "0123\n10\n"
    {|4.times { |i| print i }
puts ""
puts (1..4).to_a.sum|}

let test_classes () =
  check "instance state" "3\n4\n"
    {|class Counter
  def initialize(start)
    @n = start
  end
  def bump
    @n += 1
  end
  def value
    @n
  end
end
c = Counter.new(2)
c.bump
puts c.value
c.bump
puts c.value|};
  check "attr_accessor" "7\n9\n"
    {|class Box
  attr_accessor :v
end
b = Box.new
b.v = 7
puts b.v
b.v = 9
puts b.v|};
  check "inheritance and override" "generic\nwoof\n"
    {|class Animal
  def speak
    "generic"
  end
end
class Dog < Animal
  def speak
    "woof"
  end
end
puts Animal.new.speak
puts Dog.new.speak|};
  check "operator methods" "5\n"
    {|class Vec
  def initialize(x)
    @x = x
  end
  def +(o)
    Vec.new(@x + o.x)
  end
  def x
    @x
  end
end
puts (Vec.new(2) + Vec.new(3)).x|};
  check "class variables" "2\n"
    {|class Reg
  def initialize
    @@count = 0 if @@count == nil
    @@count += 1
  end
  def count
    @@count
  end
end
Reg.new
r = Reg.new
puts r.count|}

let test_globals_consts () =
  check "globals" "10\n" {|$g = 10
def read_g
  $g
end
puts read_g|};
  check "constants" "99\n" {|LIMIT = 99
puts LIMIT|};
  check "math module" "3.0\n1.0\n"
    {|puts Math.sqrt(9.0)
puts Math.exp(0.0)|}

let test_ranges () =
  check "range basics" "1\n10\n10\n"
    {|r = (1..10)
puts r.first
puts r.last
puts r.size|};
  check "exclusive each" "012\n"
    {|(0...3).each { |i| print i }
puts ""|}

let test_errors () =
  (try
     ignore (Tutil.output "undefined_method_xyz(3)");
     Alcotest.fail "expected failure"
   with Core.Runner.Guest_failure m ->
     Alcotest.(check bool) "mentions method" true
       (String.length m > 0));
  try
    ignore (Tutil.output "puts 1 / 0");
    Alcotest.fail "expected division failure"
  with Core.Runner.Guest_failure _ -> ()

let test_interpolation () =
  check "basic interpolation" "hello world!\n"
    {|name = "world"
puts "hello #{name}!"|};
  check "expressions inside" "6 * 7 = 42\n"
    {|x = 6
puts "#{x} * 7 = #{x * 7}"|};
  check "method calls inside" "len=3 sum=6\n"
    {|a = [1, 2, 3]
puts "len=#{a.length} sum=#{a.sum}"|};
  check "escaped hash" "not #{interp}\n" {|puts "not \#{interp}"|};
  check "interpolation in assignment" "ab3c\n"
    {|n = 3
s = "ab#{n}c"
puts s|}

let test_case_when () =
  check "multi-value when" "five\n"
    {|x = 5
case x
when 1, 2
  puts "small"
when 5
  puts "five"
else
  puts "other"
end|};
  check "strings and fallthrough" "2\ndone\n"
    {|s = "b"
case s
when "a" then puts 1
when "b" then puts 2
end
case 99
when 1 then puts "no"
end
puts "done"|};
  check "case with else" "other\n"
    {|case 42
when 1 then puts "one"
else
  puts "other"
end|};
  check "case subject evaluated once" "match\n1\n"
    {|calls = [0]
def subject(c)
  c[0] += 1
  7
end
case subject(calls)
when 1, 2, 3, 4, 5, 6 then puts "no"
when 7 then puts "match"
end
puts calls[0]|}

let test_output_formats () =
  check "float formatting" "1.0\n3.14\n-0.5\n"
    "puts 1.0\nputs 3.14\nputs(-0.5)";
  check "p inspect" "\"s\"\n[1, \"x\", nil]\n:sym\n"
    {|p "s"
p [1, "x", nil]
p :sym|};
  check "print" "abc\n" {|print "a", "b", "c"
puts ""|}

(* The CPython-style small-int intern table behind [Value.vint]. *)
let test_small_int_interning () =
  (* cached range returns the same box every time — physical equality *)
  Alcotest.(check bool) "0 interned" true (Rvm.Value.vint 0 == Rvm.Value.vint 0);
  Alcotest.(check bool) "min boundary interned" true
    (Rvm.Value.vint Rvm.Value.small_int_min == Rvm.Value.vint Rvm.Value.small_int_min);
  Alcotest.(check bool) "max boundary interned" true
    (Rvm.Value.vint Rvm.Value.small_int_max == Rvm.Value.vint Rvm.Value.small_int_max);
  (* structural correctness across the whole range, boundaries included *)
  List.iter
    (fun n ->
      match Rvm.Value.vint n with
      | Rvm.Value.VInt v -> Alcotest.(check int) (string_of_int n) n v
      | _ -> Alcotest.fail "vint did not build a VInt")
    [
      Rvm.Value.small_int_min - 1; Rvm.Value.small_int_min; -1; 0; 1; 255;
      Rvm.Value.small_int_max; Rvm.Value.small_int_max + 1; max_int; min_int;
    ];
  (* outside the range: fresh boxes, still correct *)
  let big = Rvm.Value.small_int_max + 1 in
  Alcotest.(check bool) "outside range not interned" false
    (Rvm.Value.vint big == Rvm.Value.vint big);
  Alcotest.(check bool) "outside range equal" true
    (Rvm.Value.vint big = Rvm.Value.vint big)

(* Sharing interned ints must be unobservable to guests: mutating a
   container cell that held an interned value cannot leak anywhere else,
   because mutation rebinds cells rather than mutating int boxes. *)
let test_interning_unobservable () =
  check "container mutation does not alias" "7\n1\n1\n"
    {|a = [1, 1]
b = [1]
a[0] = 7
puts a[0]
puts a[1]
puts b[0]|};
  check "arithmetic on shared small ints" "3\n2\n1\n"
    {|x = 1
y = x + 1
z = y + 1
puts z
puts y
puts x|}

let suite =
  [
    Alcotest.test_case "arithmetic" `Quick test_arith;
    Alcotest.test_case "small-int interning" `Quick test_small_int_interning;
    Alcotest.test_case "interning unobservable" `Quick test_interning_unobservable;
    Alcotest.test_case "strings" `Quick test_strings;
    Alcotest.test_case "arrays" `Quick test_arrays;
    Alcotest.test_case "hashes" `Quick test_hashes;
    Alcotest.test_case "control flow" `Quick test_control_flow;
    Alcotest.test_case "methods" `Quick test_methods;
    Alcotest.test_case "blocks and yield" `Quick test_blocks_and_yield;
    Alcotest.test_case "classes" `Quick test_classes;
    Alcotest.test_case "globals, consts, Math" `Quick test_globals_consts;
    Alcotest.test_case "ranges" `Quick test_ranges;
    Alcotest.test_case "runtime errors" `Quick test_errors;
    Alcotest.test_case "string interpolation" `Quick test_interpolation;
    Alcotest.test_case "case/when" `Quick test_case_when;
    Alcotest.test_case "output formats" `Quick test_output_formats;
  ]

(* ---- opt_* arithmetic edges ---- *)

let test_arith_edges () =
  check "floor division negative operands" "-4\n-4\n3\n3\n"
    "puts(-7 / 2)\nputs(7 / -2)\nputs(-7 / -2)\nputs(7 / 2)";
  check "ruby modulo sign follows divisor" "2\n-2\n-1\n1\n0\n"
    "puts(-7 % 3)\nputs(7 % -3)\nputs(-7 % -3)\nputs(7 % 3)\nputs(-9 % 3)";
  check "pow positive, zero, negative exponent" "8\n1\n0.25\n1.0\n"
    "puts 2 ** 3\nputs 2 ** 0\nputs 2 ** -2\nputs 1 ** -5";
  check "pow mixed float" "6.25\n0.5\n" "puts 2.5 ** 2\nputs 4 ** -0.5";
  (* Integer pow wraps modulo 2^63 like repeated multiplication, and a huge
     exponent costs O(log exp): odd units mod 2^63 have order dividing
     2^61, so 7 ** (2 ** 61 + 5) = 7 ** 5. *)
  check "pow wraps, huge exponents" "-4611686018427387904\n0\n-1\n1\n16807\n"
    "puts 2 ** 62\nputs 2 ** 63\nputs((0 - 1) ** 1000000001)\n\
     puts 1 ** (2 ** 62 - 1)\nputs 7 ** (2 ** 61 + 5)";
  check "mixed float int opt paths" "3.5\n-1.5\n5.0\n0.5\n1.5\n"
    "puts 1.5 + 2\nputs 0.5 - 2\nputs 2 * 2.5\nputs 1 / 2.0\nputs 3.5 % 2";
  check "opt fallback to send on objects" "5\n"
    {|class V
  def initialize(x)
    @x = x
  end
  def +(o)
    @x + o.raw
  end
  def raw
    @x
  end
end
puts V.new(2) + V.new(3)|};
  (try
     ignore (Tutil.output "puts 5 % 0");
     Alcotest.fail "expected modulo-by-zero failure"
   with Core.Runner.Guest_failure m ->
     Alcotest.(check bool) "mod by zero message" true
       (String.length m > 0));
  try
    ignore (Tutil.output "puts(-3 / 0)");
    Alcotest.fail "expected division-by-zero failure"
  with Core.Runner.Guest_failure _ -> ()

(* ---- per-code tables: the bytes the runner reads on every step ------- *)

module C = Rvm.Compiler
module Val = Rvm.Value

let mk_code insns =
  C.make_code ~name:"<test>" ~kind:Val.Toplevel ~arity:0 ~nlocals:4 insns

(* Every code record reachable from a compiled program, main included. *)
let codes_of source =
  let acc = ref [] in
  let rec walk (code : Val.code) =
    acc := code :: !acc;
    Array.iter
      (fun (insn : Val.insn) ->
        match insn with
        | Val.Defmethod (_, c) -> walk c
        | Val.Defclass cd -> List.iter (fun (_, c) -> walk c) cd.Val.cd_methods
        | Val.Send s | Val.Newthread s | Val.Newinstance s ->
            Option.iter walk s.Val.ss_block
        | _ -> ())
      code.Val.insns
  in
  walk (C.compile_string source).Val.main;
  !acc

let decode_corpus =
  {|def work(n)
  i = 0
  acc = 0
  while i < n
    acc = acc + i
    i += 1
  end
  acc
end
class Box
  attr_accessor :v
  def initialize
    @v = [1, 2, 3]
  end
  def pick(k)
    @v[k]
  end
end
b = Box.new
puts work(10) + b.pick(1)
puts "s" + "t"
h = { :a => 1 }
h[:b] = 2
puts h.size|}

(* Each code's [info] table must mirror the tagged world: both yield-point
   sets of [Core.Yield_points] and [Bytecode.base_cost] under every
   machine's cost table. *)
let test_decode_consistency () =
  List.iter
    (fun (code : Val.code) ->
      Alcotest.(check int)
        (code.Val.code_name ^ ": one byte per pc")
        (Array.length code.Val.insns) (Bytes.length code.Val.info);
      Array.iteri
        (fun pc insn ->
          let name = Printf.sprintf "%s@%d" code.Val.code_name pc in
          let info = Char.code (Bytes.get code.Val.info pc) in
          Alcotest.(check bool)
            (name ^ ": yield_orig")
            (Core.Yield_points.original_point insn)
            (info land Core.Yield_points.info_bit Core.Yield_points.Original
            <> 0);
          Alcotest.(check bool)
            (name ^ ": yield_ext")
            (Core.Yield_points.extended_point insn)
            (info land Core.Yield_points.info_bit Core.Yield_points.Extended
            <> 0);
          List.iter
            (fun (m : Htm_sim.Machine.t) ->
              Alcotest.(check int)
                (name ^ ": base cost")
                (Rvm.Bytecode.base_cost m.costs insn)
                (Rvm.Bytecode.cost_table m.costs).(info
                                                   lsr Rvm.Bytecode
                                                       .info_cost_shift))
            [ Htm_sim.Machine.zec12; Htm_sim.Machine.xeon_e3 ])
        code.Val.insns)
    (* an [attr_accessor] getter, as [defclass] builds it at run time *)
    (mk_code [| Val.Getivar (0, 0); Val.Leave |] :: codes_of decode_corpus)

(* The runner's cost table is the same mapping (guards the create-time
   table against [Bytecode.base_cost] drift). *)
let test_runner_cost_tbl () =
  let cfg = Core.Runner.config Htm_sim.Machine.zec12 in
  let t = Core.Runner.create cfg ~source:"nil" in
  let c = Htm_sim.Machine.zec12.costs in
  let site = { Val.ss_sym = 0; ss_argc = 0; ss_block = None; ss_cache = 0 } in
  Alcotest.(check int) "one entry per class" Rvm.Bytecode.n_cost_classes
    (Array.length t.Core.Runner.cost_tbl);
  List.iter
    (fun insn ->
      Alcotest.(check int)
        (Rvm.Bytecode.insn_name insn)
        (Rvm.Bytecode.base_cost c insn)
        t.Core.Runner.cost_tbl.(Rvm.Bytecode.cost_class insn))
    [
      Val.Nop; Val.Opt_plus; Val.Send site; Val.Invokeblock 0;
      Val.Newinstance site; Val.Newthread site; Val.Newarray 2;
      Val.Newstring "s"; Val.Defclass
        { Val.cd_name = 0; cd_super = None; cd_methods = []; cd_attrs = [] };
      Val.Defmethod (0, mk_code [| Val.Leave |]);
    ]

(* ---- pinned runs ------------------------------------------------------ *)

(* One line per run: virtual time, instructions, GIL acquisitions, HTM
   begins/commits/conflict aborts/accesses, STM begins/commits, GC runs,
   allocations, completed requests and a digest of the guest output. The
   expected lines were recorded when three interpreter tiers still ran
   and agreed on every one of them, so each line is the simulated
   behaviour every figure rests on. *)
let fingerprint (r : Core.Runner.result) =
  Printf.sprintf "%d %d %d %d %d %d %d %d %d %d %d %d %s" r.wall_cycles
    r.total_insns r.gil_acquisitions r.htm_stats.Htm_sim.Stats.begins
    r.htm_stats.Htm_sim.Stats.commits r.htm_stats.Htm_sim.Stats.aborts_conflict
    r.htm_stats.Htm_sim.Stats.txn_accesses r.stm_stats.Stm.begins
    r.stm_stats.Stm.commits r.gc_runs r.allocs r.requests_completed
    (String.sub (Digest.to_hex (Digest.string r.output)) 0 12)

let pinned_insns line = int_of_string (List.nth (String.split_on_char ' ' line) 1)

let check_pinned pins name (r : Core.Runner.result) =
  match List.assoc_opt name pins with
  | Some want -> Alcotest.(check string) name want (fingerprint r)
  | None -> Alcotest.failf "%s: no pinned line" name

(* Single-VM guest corpus under every scheme the figures use. *)
let pinned_corpus =
  [
    ("loop", "i = 0\ns = 0\nwhile i < 200\n  s += i\n  i += 1\nend\nputs s");
    ( "methods+ivars",
      {|class Acc
  def initialize
    @xs = []
    @n = 0
  end
  def add(v)
    @xs << v
    @n += 1
    self
  end
  def mean
    @xs.sum / @n
  end
end
a = Acc.new
i = 0
while i < 50
  a.add(i * 3)
  i += 1
end
puts a.mean|} );
    ( "strings+hash",
      {|h = {}
i = 0
while i < 40
  h["k#{i % 7}"] = i
  i += 1
end
puts h.size
puts h["k3"]|} );
    ( "threads+mutex",
      {|m = Mutex.new
total = 0
ts = []
t = 0
while t < 4
  ts << Thread.new do
    i = 0
    while i < 100
      m.synchronize { total += 1 }
      i += 1
    end
  end
  t += 1
end
ts.each { |th| th.join }
puts total|} );
    ( "defmethod-invalidation",
      {|def f
  1
end
puts f
def f
  2
end
puts f|} );
  ]

let pins_corpus =
  [
    ("loop/GIL", "203168 3422 1 0 0 0 0 0 0 0 0 0 0e0c5dfd3af0");
    ("loop/HTM-dynamic", "230452 3422 1 0 0 0 0 0 0 0 0 0 0e0c5dfd3af0");
    ("loop/hybrid", "230452 3422 1 0 0 0 0 0 0 0 0 0 0e0c5dfd3af0");
    ("loop/fine-grained", "201360 3422 0 0 0 0 0 0 0 0 0 0 0e0c5dfd3af0");
    ("methods+ivars/GIL", "153829 2457 1 0 0 0 0 0 0 0 2 0 f634226ee88c");
    ("methods+ivars/HTM-dynamic", "174731 2457 1 0 0 0 0 0 0 0 2 0 f634226ee88c");
    ("methods+ivars/hybrid", "174731 2457 1 0 0 0 0 0 0 0 2 0 f634226ee88c");
    ("methods+ivars/fine-grained", "152587 2457 0 0 0 0 0 0 0 0 2 0 f634226ee88c");
    ("strings+hash/GIL", "69375 989 1 0 0 0 0 0 0 0 82 0 4cdf85522e95");
    ("strings+hash/HTM-dynamic", "74971 989 1 0 0 0 0 0 0 0 82 0 4cdf85522e95");
    ("strings+hash/hybrid", "74971 989 1 0 0 0 0 0 0 0 82 0 4cdf85522e95");
    ("strings+hash/fine-grained", "68853 989 0 0 0 0 0 0 0 0 82 0 4cdf85522e95");
    ("threads+mutex/GIL", "910648 13025 8 0 0 0 0 0 0 0 6 0 c77e81851c49");
    ("threads+mutex/HTM-dynamic", "1293513 17853 573 2479 1137 960 42044 0 0 0 6 0 c77e81851c49");
    ("threads+mutex/hybrid", "1354272 21959 382 1446 517 705 35613 189 24 0 6 0 c77e81851c49");
    ("threads+mutex/fine-grained", "791486 13025 0 0 0 0 0 0 0 0 6 0 c77e81851c49");
    ("defmethod-invalidation/GIL", "3180 22 1 0 0 0 0 0 0 0 0 0 6ddb4095eb71");
    ("defmethod-invalidation/HTM-dynamic", "3296 22 1 0 0 0 0 0 0 0 0 0 6ddb4095eb71");
    ("defmethod-invalidation/hybrid", "3296 22 1 0 0 0 0 0 0 0 0 0 6ddb4095eb71");
    ("defmethod-invalidation/fine-grained", "2968 22 0 0 0 0 0 0 0 0 0 0 6ddb4095eb71")
  ]

let test_pinned_corpus () =
  List.iter
    (fun (name, source) ->
      List.iter
        (fun scheme ->
          let cfg = Core.Runner.config ~scheme Htm_sim.Machine.zec12 in
          check_pinned pins_corpus
            (Printf.sprintf "%s/%s" name (Core.Scheme.to_string scheme))
            (Core.Runner.run_source cfg ~source))
        [
          Core.Scheme.Gil_only; Core.Scheme.Htm_dynamic; Core.Scheme.Hybrid;
          Core.Scheme.Fine_grained;
        ])
    pinned_corpus

let pins_workloads =
  [
    ("while/GIL/1T", "2024883 34179 3 0 0 0 0 0 0 0 9 0 6db61918ff83");
    ("while/GIL/2T", "4048978 68250 12 0 0 0 0 0 0 0 10 0 a9e127f50b5c");
    ("while/GIL/4T", "8097168 136392 30 0 0 0 0 0 0 0 12 0 ef4df9cc5572");
    ("while/HTM-dynamic/1T", "2383152 34179 2 251 251 0 94800 0 0 0 9 0 6db61918ff83");
    ("while/HTM-dynamic/2T", "2388717 68259 2 503 502 1 189635 0 0 0 10 0 a9e127f50b5c");
    ("while/HTM-dynamic/4T", "2399571 136428 2 1008 1004 4 379340 0 0 0 12 0 ef4df9cc5572");
    ("while/hybrid/1T", "2383654 34179 2 251 251 0 95051 0 0 0 9 0 6db61918ff83");
    ("while/hybrid/2T", "2389221 68259 2 503 502 1 190138 0 0 0 10 0 a9e127f50b5c");
    ("while/hybrid/4T", "2400077 136428 2 1008 1004 4 380348 0 0 0 12 0 ef4df9cc5572");
    ("iterator/GIL/1T", "2841986 42191 3 0 0 0 0 0 0 0 10 0 6db61918ff83");
    ("iterator/GIL/2T", "5686472 84274 15 0 0 0 0 0 0 0 12 0 a9e127f50b5c");
    ("iterator/GIL/4T", "11376548 168440 40 0 0 0 0 0 0 0 16 0 ef4df9cc5572");
    ("iterator/HTM-dynamic/1T", "3379004 42191 2 376 376 0 175273 0 0 0 10 0 6db61918ff83");
    ("iterator/HTM-dynamic/2T", "3402392 84433 4 758 751 7 350934 0 0 0 18 0 a9e127f50b5c");
    ("iterator/HTM-dynamic/4T", "3424049 168815 6 1524 1501 23 701920 0 0 0 31 0 ef4df9cc5572");
    ("iterator/hybrid/1T", "3379756 42191 2 376 376 0 175649 0 0 0 10 0 6db61918ff83");
    ("iterator/hybrid/2T", "3410311 84578 3 758 750 8 351406 3 2 0 19 0 a9e127f50b5c");
    ("iterator/hybrid/4T", "3441254 169593 2 1518 1500 18 703376 10 4 0 34 0 ef4df9cc5572");
    ("cg/GIL/1T", "5785631 91699 4 0 0 0 0 0 0 0 4942 0 20f76dbb4aac");
    ("cg/GIL/2T", "5836004 92220 23 0 0 0 0 0 0 0 4945 0 20f76dbb4aac");
    ("cg/GIL/4T", "5917994 93262 44 0 0 0 0 0 0 0 4951 0 20f76dbb4aac");
    ("cg/HTM-dynamic/1T", "6828989 92110 9 469 462 0 220863 0 0 0 4956 0 20f76dbb4aac");
    ("cg/HTM-dynamic/2T", "5258561 96479 38 554 466 72 231921 0 0 0 5197 0 20f76dbb4aac");
    ("cg/HTM-dynamic/4T", "4697963 106929 99 909 521 362 265395 0 0 0 5714 0 20f76dbb4aac");
    ("cg/hybrid/1T", "6829927 92110 9 469 462 0 221332 0 0 0 4956 0 20f76dbb4aac");
    ("cg/hybrid/2T", "5276743 97596 26 555 465 78 233669 21 13 0 5219 0 20f76dbb4aac");
    ("cg/hybrid/4T", "4633531 107891 60 858 545 286 259760 66 39 0 5785 0 20f76dbb4aac");
    ("is/GIL/1T", "17856431 297740 4 0 0 0 0 0 0 0 24 0 fb73f371c68e");
    ("is/GIL/2T", "18000593 299740 25 0 0 0 0 0 0 0 26 0 fb73f371c68e");
    ("is/GIL/4T", "18262397 303740 43 0 0 0 0 0 0 0 30 0 fb73f371c68e");
    ("is/HTM-dynamic/1T", "20691433 297983 5 1155 1152 0 477795 0 0 0 24 0 fb73f371c68e");
    ("is/HTM-dynamic/2T", "16339962 302775 42 1269 1145 114 484995 0 0 0 32 0 fb73f371c68e");
    ("is/HTM-dynamic/4T", "14403057 313715 122 1747 1192 536 515889 0 0 0 45 0 fb73f371c68e");
    ("is/hybrid/1T", "20693743 297983 5 1155 1152 0 478950 0 0 0 24 0 fb73f371c68e");
    ("is/hybrid/2T", "16441692 305138 32 1245 1143 90 487738 41 15 0 33 0 fb73f371c68e");
    ("is/hybrid/4T", "14396606 316590 58 1428 1161 246 505486 153 40 0 48 0 fb73f371c68e")
  ]

let test_pinned_workloads () =
  let workloads =
    Workloads.Workload.micro
    @ List.filter
        (fun (w : Workloads.Workload.t) -> w.name = "cg" || w.name = "is")
        Workloads.Workload.npb
  in
  List.iter
    (fun (w : Workloads.Workload.t) ->
      List.iter
        (fun scheme ->
          List.iter
            (fun threads ->
              let source =
                w.Workloads.Workload.source ~threads ~size:Workloads.Size.Test
              in
              let cfg = Core.Runner.config ~scheme Htm_sim.Machine.zec12 in
              check_pinned pins_workloads
                (Printf.sprintf "%s/%s/%dT" w.name
                   (Core.Scheme.to_string scheme)
                   threads)
                (Core.Runner.run_source ~setup:(w.Workloads.Workload.setup None)
                   cfg ~source))
            [ 1; 2; 4 ])
        [ Core.Scheme.Gil_only; Core.Scheme.Htm_dynamic; Core.Scheme.Hybrid ])
    workloads

let suite =
  suite
  @ [
      Alcotest.test_case "opt arithmetic edges" `Quick test_arith_edges;
      Alcotest.test_case "decode consistency" `Quick test_decode_consistency;
      Alcotest.test_case "runner cost table" `Quick test_runner_cost_tbl;
      Alcotest.test_case "pinned runs: corpus" `Quick test_pinned_corpus;
      Alcotest.test_case "pinned runs: workloads" `Slow test_pinned_workloads;
    ]

(* The hybrid-TM figure runs on a machine with a quarter of the store
   buffer, so windows overflow routinely and the runs live on the fallback
   paths (GIL serialisation, software transactions) — pressure the stock
   grids never reach. Each run gets a finite budget a bit above its pinned
   instruction count, so a divergence fails fast instead of spinning to
   the global budget. *)
let run_pressure ~scheme ~threads ~machine ~max_insns
    (w : Workloads.Workload.t) =
  let cfg = Core.Runner.config ~scheme ~max_insns machine in
  let source = w.Workloads.Workload.source ~threads ~size:Workloads.Size.Test in
  match w.Workloads.Workload.kind with
  | Workloads.Workload.Compute ->
      Core.Runner.run_source ~setup:(w.Workloads.Workload.setup None) cfg
        ~source
  | Workloads.Workload.Server ->
      let requests = w.Workloads.Workload.server_requests Workloads.Size.Test in
      let io =
        (Option.get w.Workloads.Workload.make_io) ~clients:threads ~requests
      in
      Core.Runner.run_source ~io
        ~stop:(fun () -> Netsim.done_all io)
        ~setup:(w.Workloads.Workload.setup (Some io))
        cfg ~source

let pins_pressure =
  [
    ("bt/GIL/1T", "7608227 116969 4 0 0 0 0 0 0 0 19852 0 f3aeee1b1305");
    ("bt/GIL/2T", "7638430 117150 22 0 0 0 0 0 0 0 19853 0 f3aeee1b1305");
    ("bt/GIL/4T", "7673384 117512 35 0 0 0 0 0 0 0 19855 0 f3aeee1b1305");
    ("bt/GIL/6T", "7702902 117874 43 0 0 0 0 0 0 0 19857 0 f3aeee1b1305");
    ("bt/GIL/8T", "7731232 118236 50 0 0 0 0 0 0 0 19859 0 f3aeee1b1305");
    ("bt/GIL/12T", "7786892 118960 63 0 0 0 0 0 0 0 19863 0 f3aeee1b1305");
    ("bt/HTM-dynamic/1T", "10561305 134629 203 1056 855 0 591169 0 0 0 23681 0 f3aeee1b1305");
    ("bt/HTM-dynamic/2T", "6680287 137247 143 1279 998 135 644862 0 0 0 23903 0 f3aeee1b1305");
    ("bt/HTM-dynamic/4T", "4650241 144868 126 1712 1230 350 701921 0 0 0 24982 0 f3aeee1b1305");
    ("bt/HTM-dynamic/6T", "3990880 147948 122 2003 1401 500 728873 0 0 0 25229 0 f3aeee1b1305");
    ("bt/HTM-dynamic/8T", "3311508 147400 120 2377 1629 669 738359 0 0 0 24928 0 f3aeee1b1305");
    ("bt/HTM-dynamic/12T", "3319325 156725 132 4864 3421 1392 801869 0 0 0 26049 0 f3aeee1b1305");
    ("bt/hybrid/1T", "11633005 134767 4 1056 855 0 592225 201 199 0 23688 0 f3aeee1b1305");
    ("bt/hybrid/2T", "6626866 136953 9 1225 952 106 623348 173 163 0 23923 0 f3aeee1b1305");
    ("bt/hybrid/4T", "4185249 141449 16 1605 1163 315 664901 145 128 0 24432 0 f3aeee1b1305");
    ("bt/hybrid/6T", "3522255 142438 36 2180 1559 540 666815 163 146 0 24272 0 f3aeee1b1305");
    ("bt/hybrid/8T", "3008800 142041 43 3701 2633 1024 638869 281 243 0 24203 0 f3aeee1b1305");
    ("bt/hybrid/12T", "3363460 147950 73 28381 25732 2615 707830 722 594 0 24974 0 f3aeee1b1305");
    ("cg/GIL/1T", "5785631 91699 4 0 0 0 0 0 0 0 4942 0 20f76dbb4aac");
    ("cg/GIL/2T", "5836004 92220 23 0 0 0 0 0 0 0 4945 0 20f76dbb4aac");
    ("cg/GIL/4T", "5917994 93262 44 0 0 0 0 0 0 0 4951 0 20f76dbb4aac");
    ("cg/GIL/6T", "5997806 94304 63 0 0 0 0 0 0 0 4957 0 20f76dbb4aac");
    ("cg/GIL/8T", "6076430 95346 81 0 0 0 0 0 0 0 4963 0 20f76dbb4aac");
    ("cg/GIL/12T", "6233818 97430 117 0 0 0 0 0 0 0 4975 0 20f76dbb4aac");
    ("cg/HTM-dynamic/1T", "6853852 92415 13 469 458 0 220442 0 0 0 4984 0 20f76dbb4aac");
    ("cg/HTM-dynamic/2T", "5276427 96821 39 557 465 76 232884 0 0 0 5211 0 20f76dbb4aac");
    ("cg/HTM-dynamic/4T", "4709044 107179 100 906 519 360 266669 0 0 0 5752 0 20f76dbb4aac");
    ("cg/HTM-dynamic/6T", "4706778 118680 189 1727 716 974 304789 0 0 0 6287 0 20f76dbb4aac");
    ("cg/HTM-dynamic/8T", "4704330 123781 252 2682 1143 1498 321746 0 0 0 6475 0 20f76dbb4aac");
    ("cg/HTM-dynamic/12T", "4696284 131771 374 4760 2198 2483 356376 0 0 0 6868 0 20f76dbb4aac");
    ("cg/hybrid/1T", "6916192 92805 9 469 458 0 220911 10 4 0 4998 0 20f76dbb4aac");
    ("cg/hybrid/2T", "5313137 97768 25 546 457 72 232624 26 15 0 5240 0 20f76dbb4aac");
    ("cg/hybrid/4T", "4638025 108243 72 892 545 321 261372 69 41 0 5804 0 20f76dbb4aac");
    ("cg/hybrid/6T", "4633016 120920 96 1530 713 791 270624 251 149 0 6393 0 20f76dbb4aac");
    ("cg/hybrid/8T", "4654145 123992 172 4459 2827 1577 255795 517 356 0 6590 0 20f76dbb4aac");
    ("cg/hybrid/12T", "4778003 129235 238 13012 9729 3222 266276 1191 754 0 6896 0 20f76dbb4aac");
    ("ft/GIL/1T", "4694551 73298 4 0 0 0 0 0 0 0 7951 0 9e0db99fd50f");
    ("ft/GIL/2T", "4728803 73610 19 0 0 0 0 0 0 0 7952 0 9e0db99fd50f");
    ("ft/GIL/4T", "4778551 74234 32 0 0 0 0 0 0 0 7954 0 9e0db99fd50f");
    ("ft/GIL/6T", "4826085 74858 43 0 0 0 0 0 0 0 7956 0 9e0db99fd50f");
    ("ft/GIL/8T", "4872503 75482 53 0 0 0 0 0 0 0 7958 0 9e0db99fd50f");
    ("ft/GIL/12T", "4965439 76730 73 0 0 0 0 0 0 0 7962 0 9e0db99fd50f");
    ("ft/HTM-dynamic/1T", "6404106 82475 111 528 419 0 274566 0 0 0 9315 0 9e0db99fd50f");
    ("ft/HTM-dynamic/2T", "4636494 87148 102 639 451 88 309787 0 0 0 9818 0 9e0db99fd50f");
    ("ft/HTM-dynamic/4T", "3562698 92846 97 802 483 235 347118 0 0 0 10308 0 9e0db99fd50f");
    ("ft/HTM-dynamic/6T", "3188306 98197 107 1073 606 381 378192 0 0 0 10794 0 9e0db99fd50f");
    ("ft/HTM-dynamic/8T", "2921777 98547 126 1354 714 557 383191 0 0 0 10609 0 9e0db99fd50f");
    ("ft/HTM-dynamic/12T", "3145534 117206 262 5027 2605 2321 484385 0 0 0 12987 0 9e0db99fd50f");
    ("ft/hybrid/1T", "6926819 82614 6 528 419 0 275094 107 105 0 9326 0 9e0db99fd50f");
    ("ft/hybrid/2T", "4545784 86639 14 618 427 84 293473 114 103 0 9718 0 9e0db99fd50f");
    ("ft/hybrid/4T", "3307156 90590 32 800 486 226 323732 94 79 0 10063 0 9e0db99fd50f");
    ("ft/hybrid/6T", "3049439 96861 61 1084 543 464 334564 156 101 0 10677 0 9e0db99fd50f");
    ("ft/hybrid/8T", "2775743 95259 69 1379 652 681 318163 178 127 0 10267 0 9e0db99fd50f");
    ("ft/hybrid/12T", "3094240 108663 145 11667 6206 5362 288758 1721 1515 0 12012 0 9e0db99fd50f");
    ("is/GIL/1T", "17856431 297740 4 0 0 0 0 0 0 0 24 0 fb73f371c68e");
    ("is/GIL/2T", "18000593 299740 25 0 0 0 0 0 0 0 26 0 fb73f371c68e");
    ("is/GIL/4T", "18262397 303740 43 0 0 0 0 0 0 0 30 0 fb73f371c68e");
    ("is/GIL/6T", "18516499 307740 54 0 0 0 0 0 0 0 34 0 fb73f371c68e");
    ("is/GIL/8T", "18770575 311740 65 0 0 0 0 0 0 0 38 0 fb73f371c68e");
    ("is/GIL/12T", "19274357 319740 83 0 0 0 0 0 0 0 46 0 fb73f371c68e");
    ("is/HTM-dynamic/1T", "20693470 298010 6 1155 1151 0 477401 0 0 0 25 0 fb73f371c68e");
    ("is/HTM-dynamic/2T", "16344210 303357 37 1259 1147 102 487474 0 0 0 29 0 fb73f371c68e");
    ("is/HTM-dynamic/4T", "14423849 313873 118 1723 1192 498 514873 0 0 0 40 0 fb73f371c68e");
    ("is/HTM-dynamic/6T", "13729481 321491 169 3266 2202 1014 544966 0 0 0 62 0 fb73f371c68e");
    ("is/HTM-dynamic/8T", "13543944 326258 233 4701 3283 1308 560682 0 0 0 75 0 fb73f371c68e");
    ("is/HTM-dynamic/12T", "13466181 337225 386 9967 7312 2406 611730 0 0 0 131 0 fb73f371c68e");
    ("is/hybrid/1T", "20721023 298201 5 1155 1151 0 478556 3 1 0 25 0 fb73f371c68e");
    ("is/hybrid/2T", "16395191 305125 18 1239 1147 81 488857 42 20 0 29 0 fb73f371c68e");
    ("is/hybrid/4T", "14374195 315130 57 1390 1165 197 501870 126 36 0 40 0 fb73f371c68e");
    ("is/hybrid/6T", "13945124 328235 109 1982 1458 478 523221 316 73 0 62 0 fb73f371c68e");
    ("is/hybrid/8T", "13860525 339810 177 2363 1531 762 543642 452 78 0 74 0 fb73f371c68e");
    ("is/hybrid/12T", "14269529 351228 294 74928 70042 4738 845031 1474 1033 0 98 0 fb73f371c68e");
    ("lu/GIL/1T", "7172113 114465 4 0 0 0 0 0 0 0 6707 0 63061f808c1d");
    ("lu/GIL/2T", "7282211 115885 29 0 0 0 0 0 0 0 6708 0 63061f808c1d");
    ("lu/GIL/4T", "7469299 118725 49 0 0 0 0 0 0 0 6710 0 63061f808c1d");
    ("lu/GIL/6T", "7655277 121565 68 0 0 0 0 0 0 0 6712 0 63061f808c1d");
    ("lu/GIL/8T", "7840193 124405 86 0 0 0 0 0 0 0 6714 0 63061f808c1d");
    ("lu/GIL/12T", "8212139 130085 124 0 0 0 0 0 0 0 6718 0 63061f808c1d");
    ("lu/HTM-dynamic/1T", "8653753 115071 12 710 700 0 337787 0 0 0 6734 0 63061f808c1d");
    ("lu/HTM-dynamic/2T", "8952029 158091 346 3953 2195 1743 479258 0 0 0 10341 0 63061f808c1d");
    ("lu/HTM-dynamic/4T", "6942381 157538 399 8122 5672 2411 492693 0 0 0 10036 0 63061f808c1d");
    ("lu/HTM-dynamic/6T", "6188706 160291 404 11415 8208 3162 520970 0 0 0 9852 0 63061f808c1d");
    ("lu/HTM-dynamic/8T", "5963389 164682 425 15531 11578 3869 548613 0 0 0 9881 0 63061f808c1d");
    ("lu/HTM-dynamic/12T", "5668764 172311 621 31532 24529 6836 630343 0 0 0 10010 0 63061f808c1d");
    ("lu/hybrid/1T", "8663591 115071 10 710 700 0 338497 2 2 0 6734 0 63061f808c1d");
    ("lu/hybrid/2T", "9809469 169794 52 2294 1113 1162 458258 585 245 0 10577 0 63061f808c1d");
    ("lu/hybrid/4T", "8362047 196750 134 4337 2211 2095 474828 1130 357 0 12509 0 63061f808c1d");
    ("lu/hybrid/6T", "7495511 207565 170 6150 3529 2575 475660 1384 429 0 12624 0 63061f808c1d");
    ("lu/hybrid/8T", "6936472 209010 248 9042 5843 3139 487093 1510 413 0 12597 0 63061f808c1d");
    ("lu/hybrid/12T", "7070174 233429 431 28627 19717 8803 597170 3203 1560 0 14001 0 63061f808c1d");
    ("mg/GIL/1T", "1715456 27628 4 0 0 0 0 0 0 0 1310 0 9fa0a88d074b");
    ("mg/GIL/2T", "1749580 28000 16 0 0 0 0 0 0 0 1311 0 9fa0a88d074b");
    ("mg/GIL/4T", "1806782 28744 30 0 0 0 0 0 0 0 1313 0 9fa0a88d074b");
    ("mg/GIL/6T", "1864014 29488 44 0 0 0 0 0 0 0 1315 0 9fa0a88d074b");
    ("mg/GIL/8T", "1921216 30232 58 0 0 0 0 0 0 0 1317 0 9fa0a88d074b");
    ("mg/GIL/12T", "2036806 31720 87 0 0 0 0 0 0 0 1321 0 9fa0a88d074b");
    ("mg/HTM-dynamic/1T", "2075539 28013 8 186 180 0 85024 0 0 0 1317 0 9fa0a88d074b");
    ("mg/HTM-dynamic/2T", "1423527 29129 21 208 177 18 87087 0 0 0 1338 0 9fa0a88d074b");
    ("mg/HTM-dynamic/4T", "1626668 41184 88 523 154 346 120614 0 0 0 1959 0 9fa0a88d074b");
    ("mg/HTM-dynamic/6T", "2155468 59991 200 1311 160 1117 177463 0 0 0 2872 0 9fa0a88d074b");
    ("mg/HTM-dynamic/8T", "2305473 70712 279 2271 240 1980 222583 0 0 0 3723 0 9fa0a88d074b");
    ("mg/HTM-dynamic/12T", "2188599 74816 405 4536 729 3727 253771 0 0 0 4184 0 9fa0a88d074b");
    ("mg/hybrid/1T", "2093743 28165 8 186 180 0 85210 2 0 0 1324 0 9fa0a88d074b");
    ("mg/hybrid/2T", "1432175 29268 20 206 176 16 87165 3 2 0 1347 0 9fa0a88d074b");
    ("mg/hybrid/4T", "1370921 36963 46 361 156 180 104356 33 22 0 1665 0 9fa0a88d074b");
    ("mg/hybrid/6T", "1672953 52530 83 740 77 626 111852 203 129 0 2518 0 9fa0a88d074b");
    ("mg/hybrid/8T", "1717941 53658 130 955 80 829 97930 301 144 0 2526 0 9fa0a88d074b");
    ("mg/hybrid/12T", "1978066 69593 208 1340 101 1185 110147 586 160 0 3293 0 9fa0a88d074b");
    ("sp/GIL/1T", "6844426 109078 4 0 0 0 0 0 0 0 7787 0 ba76e923ebdc");
    ("sp/GIL/2T", "6882535 109343 25 0 0 0 0 0 0 0 7788 0 ba76e923ebdc");
    ("sp/GIL/4T", "6927781 109873 39 0 0 0 0 0 0 0 7790 0 ba76e923ebdc");
    ("sp/GIL/6T", "6968659 110403 49 0 0 0 0 0 0 0 7792 0 ba76e923ebdc");
    ("sp/GIL/8T", "7010593 110933 60 0 0 0 0 0 0 0 7794 0 ba76e923ebdc");
    ("sp/GIL/12T", "7092393 111993 80 0 0 0 0 0 0 0 7798 0 ba76e923ebdc");
    ("sp/HTM-dynamic/1T", "8318253 109384 6 811 807 0 394745 0 0 0 7800 0 ba76e923ebdc");
    ("sp/HTM-dynamic/2T", "5385004 110647 17 833 803 20 398112 0 0 0 7881 0 ba76e923ebdc");
    ("sp/HTM-dynamic/4T", "4002644 113617 41 904 805 82 407636 0 0 0 8034 0 ba76e923ebdc");
    ("sp/HTM-dynamic/6T", "3635574 117223 60 1057 828 203 419482 0 0 0 8202 0 ba76e923ebdc");
    ("sp/HTM-dynamic/8T", "3450233 120279 88 1320 938 351 432826 0 0 0 8395 0 ba76e923ebdc");
    ("sp/HTM-dynamic/12T", "3419215 130347 166 3043 1847 1153 479743 0 0 0 9165 0 ba76e923ebdc");
    ("sp/hybrid/1T", "8319875 109384 6 811 807 0 395556 0 0 0 7800 0 ba76e923ebdc");
    ("sp/hybrid/2T", "5397021 110665 14 832 802 20 398103 5 4 0 7886 0 ba76e923ebdc");
    ("sp/hybrid/4T", "3998507 113439 38 897 801 82 405730 11 3 0 8012 0 ba76e923ebdc");
    ("sp/hybrid/6T", "3623925 118399 54 1016 809 187 421297 35 8 0 8298 0 ba76e923ebdc");
    ("sp/hybrid/8T", "3459453 121470 74 1232 879 328 431458 65 13 0 8503 0 ba76e923ebdc");
    ("sp/hybrid/12T", "3680848 135436 117 20642 17581 3018 452882 983 772 0 9632 0 ba76e923ebdc");
    ("webrick/GIL/1T", "10148665 138440 219 0 0 0 0 0 0 0 13443 60 d41d8cd98f00");
    ("webrick/GIL/2T", "9962401 138440 189 0 0 0 0 0 0 0 13443 60 d41d8cd98f00");
    ("webrick/GIL/4T", "9961847 138440 188 0 0 0 0 0 0 0 13443 60 d41d8cd98f00");
    ("webrick/GIL/6T", "9961293 138440 187 0 0 0 0 0 0 0 13443 60 d41d8cd98f00");
    ("webrick/GIL/8T", "9960739 138440 186 0 0 0 0 0 0 0 13443 60 d41d8cd98f00");
    ("webrick/GIL/12T", "9959631 138440 184 0 0 0 0 0 0 0 13443 60 d41d8cd98f00");
    ("webrick/HTM-dynamic/1T", "14061297 163805 1053 2096 1160 0 541325 0 0 0 17052 60 d41d8cd98f00");
    ("webrick/HTM-dynamic/2T", "10805200 176341 1015 3782 2191 601 644440 0 0 0 18182 60 d41d8cd98f00");
    ("webrick/HTM-dynamic/4T", "10792072 178739 1005 3792 2182 631 652129 0 0 0 18305 60 d41d8cd98f00");
    ("webrick/HTM-dynamic/6T", "10508454 180092 1000 4062 2311 782 674278 0 0 0 18469 60 d41d8cd98f00");
    ("webrick/HTM-dynamic/8T", "10290057 181954 1005 4831 2942 893 689644 0 0 0 18504 60 d41d8cd98f00");
    ("webrick/HTM-dynamic/12T", "9385923 187639 1048 7588 5119 1385 844406 0 0 0 19467 60 d41d8cd98f00");
    ("webrick/hybrid/1T", "18988857 167219 264 2096 1160 0 543421 848 789 0 17624 60 d41d8cd98f00");
    ("webrick/hybrid/2T", "11631196 181871 231 3402 2061 381 593450 980 800 0 19741 60 d41d8cd98f00");
    ("webrick/hybrid/4T", "11336565 184800 240 3567 2197 396 607892 1019 810 0 20346 60 d41d8cd98f00");
    ("webrick/hybrid/6T", "10948418 189056 236 3978 2508 459 617660 1064 841 0 20743 60 d41d8cd98f00");
    ("webrick/hybrid/8T", "10491540 199690 235 5642 3762 822 652438 1257 959 0 22166 60 d41d8cd98f00");
    ("webrick/hybrid/12T", "10067742 201247 238 28926 26098 1681 786092 1689 1235 0 22952 60 d41d8cd98f00")
  ]

let test_pinned_capacity_pressure () =
  let machine =
    { Htm_sim.Machine.zec12 with Htm_sim.Machine.ws_lines = 8 }
  in
  List.iter
    (fun wname ->
      let w = Option.get (Workloads.Workload.find wname) in
      List.iter
        (fun scheme ->
          List.iter
            (fun threads ->
              let name =
                Printf.sprintf "%s/%s/%dT" wname
                  (Core.Scheme.to_string scheme)
                  threads
              in
              let max_insns =
                match List.assoc_opt name pins_pressure with
                | Some line -> (3 * pinned_insns line) + 10_000
                | None -> Alcotest.failf "%s: no pinned line" name
              in
              check_pinned pins_pressure name
                (run_pressure ~scheme ~threads ~machine ~max_insns w))
            [ 1; 2; 4; 6; 8; 12 ])
        [ Core.Scheme.Gil_only; Core.Scheme.Htm_dynamic; Core.Scheme.Hybrid ])
    [ "bt"; "cg"; "ft"; "is"; "lu"; "mg"; "sp"; "webrick" ]

(* ---- method redefinition mid-run ----
   A hot loop runs against one method table, then a mid-run
   [Defmethod]/[Defclass] replaces the method and a second hot loop must
   dispatch to the new one (the inline caches guard on the class, so a
   stale target would show up as a wrong sum). *)

let defmethod_src =
  {|def f(v)
  v + 1
end
s = 0
i = 0
while i < 200
  s = f(s)
  i += 1
end
def f(v)
  v + 2
end
j = 0
while j < 200
  s = f(s)
  j += 1
end
puts s|}

let defclass_src =
  {|class C
  def g
    1
  end
end
c = C.new
s = 0
i = 0
while i < 200
  s += c.g
  i += 1
end
class C
  def g
    2
  end
end
j = 0
while j < 200
  s += c.g
  j += 1
end
puts s|}

let test_redefinition_mid_run () =
  List.iter
    (fun (name, src, want) ->
      let cfg =
        Core.Runner.config ~scheme:Core.Scheme.Gil_only Htm_sim.Machine.zec12
      in
      let r = Core.Runner.run_source cfg ~source:src in
      Alcotest.(check string) (name ^ ": output") "600\n" r.Core.Runner.output;
      Alcotest.(check string) name want (fingerprint r))
    [
      ("defmethod", defmethod_src, "538300 8432 1 0 0 0 0 0 0 0 0 0 412009a52065");
      ("defclass", defclass_src, "513497 8037 1 0 0 0 0 0 0 0 1 0 412009a52065");
    ]

let suite =
  suite
  @ [
      Alcotest.test_case "pinned runs: capacity pressure" `Quick
        test_pinned_capacity_pressure;
      Alcotest.test_case "method redefinition mid-run" `Quick
        test_redefinition_mid_run;
    ]
