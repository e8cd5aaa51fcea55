(* Deeper interpreter semantics: scoping, class machinery, exception edge
   cases, iteration protocols, and builtin corner cases. *)

open Minipy

let run src =
  let t = Interp.create (Vfs.create ()) in
  ignore (Interp.exec_main t (Parser.parse ~file:"<sem>" src));
  Interp.stdout_contents t

let check_out name src expected =
  Alcotest.test_case name `Quick (fun () ->
      Alcotest.(check string) name expected (run src))

let check_raises name src exc_class =
  Alcotest.test_case name `Quick (fun () ->
      match run src with
      | _ -> Alcotest.failf "%s: expected %s" name exc_class
      | exception Value.Py_error e ->
        Alcotest.(check string) name exc_class e.Value.exc_class)

let scoping =
  [ check_out "function locals shadow globals"
      "x = 1\ndef f():\n  x = 2\n  return x\nprint(f(), x)" "2 1\n";
    check_out "reading global without declaration"
      "x = 10\ndef f():\n  return x + 1\nprint(f())" "11\n";
    check_out "global declaration writes through"
      "x = 1\ndef f():\n  global x\n  x = 5\nf()\nprint(x)" "5\n";
    check_out "parameters are local"
      "x = 1\ndef f(x):\n  x = x + 1\n  return x\nprint(f(10), x)" "11 1\n";
    check_out "defaults evaluated at def time"
      "base = 10\ndef f(x=base):\n  return x\nbase = 99\nprint(f())" "10\n";
    check_out "closure sees later globals"
      "def f():\n  return later()\ndef later():\n  return 7\nprint(f())" "7\n";
    check_out "loop variable persists after loop"
      "for i in range(3):\n  pass\nprint(i)" "2\n";
    check_out "comprehension target is function-local here"
      "xs = [i * 2 for i in range(3)]\nprint(xs, i)" "[0, 2, 4] 2\n";
    check_raises "function local not visible outside"
      "def f():\n  inner = 1\nf()\nprint(inner)" "NameError" ]

let class_machinery =
  [ check_out "method resolution prefers instance attr"
      "class A:\n\
      \  def tag(self):\n\
      \    return \"method\"\n\
       a = A()\n\
       a.tag = lambda: \"attr\"\n\
       print(a.tag())"
      "attr\n";
    check_out "class attrs shared, instance attrs own"
      "class C:\n\
      \  count = 0\n\
       a = C()\n\
       b = C()\n\
       a.count = 5\n\
       print(a.count, b.count, C.count)"
      "5 0 0\n";
    check_out "multiple inheritance left to right"
      "class L:\n\
      \  def who(self):\n\
      \    return \"L\"\n\
       class R:\n\
      \  def who(self):\n\
      \    return \"R\"\n\
       class C(L, R):\n\
      \  pass\n\
       print(C().who())"
      "L\n";
    check_out "methods can call other methods via self"
      "class Acc:\n\
      \  def __init__(self):\n\
      \    self.total = 0\n\
      \  def add(self, x):\n\
      \    self.total = self.total + x\n\
      \    return self.total\n\
      \  def add_twice(self, x):\n\
      \    self.add(x)\n\
      \    return self.add(x)\n\
       print(Acc().add_twice(3))"
      "6\n";
    check_out "grandparent methods reachable"
      "class A:\n\
      \  def root(self):\n\
      \    return 1\n\
       class B(A):\n\
      \  pass\n\
       class C(B):\n\
      \  pass\n\
       print(C().root())"
      "1\n";
    check_raises "instance not callable without __call__"
      "class A:\n  pass\nA()()" "TypeError";
    check_raises "instantiating with wrong arity"
      "class A:\n  def __init__(self, x):\n    self.x = x\nA()" "TypeError" ]

let exceptions =
  [ check_out "finally ordering with return"
      "def f():\n\
      \  try:\n\
      \    return \"try\"\n\
      \  finally:\n\
      \    print(\"fin\")\n\
       print(f())"
      "fin\ntry\n";
    check_out "nested handlers pick innermost"
      "try:\n\
      \  try:\n\
      \    raise ValueError(\"inner\")\n\
      \  except ValueError:\n\
      \    print(\"inner handler\")\n\
       except ValueError:\n\
      \  print(\"outer handler\")"
      "inner handler\n";
    check_out "exception in handler propagates"
      "try:\n\
      \  try:\n\
      \    raise ValueError(\"a\")\n\
      \  except ValueError:\n\
      \    raise KeyError(\"b\")\n\
       except KeyError:\n\
      \  print(\"outer caught b\")"
      "outer caught b\n";
    check_out "loop break through try-finally"
      "for i in range(5):\n\
      \  try:\n\
      \    if i == 1:\n\
      \      break\n\
      \  finally:\n\
      \    print(\"fin\", i)\n\
       print(\"done\")"
      "fin 0\nfin 1\ndone\n";
    check_out "exception value accessible via args"
      "try:\n  raise ValueError(\"boom\")\nexcept ValueError as e:\n  print(e.args)"
      "('boom',)\n";
    check_out "raising a string wraps it"
      "try:\n  raise \"plain\"\nexcept Exception as e:\n  print(e)"
      "Exception('plain')\n";
    check_raises "finally runs then original propagates"
      "try:\n  raise KeyError(\"k\")\nfinally:\n  pass" "KeyError" ]

let iteration =
  [ check_out "for over dict yields keys"
      "d = {\"a\": 1, \"b\": 2}\nfor k in d:\n  print(k)" "a\nb\n";
    check_out "for over string yields chars"
      "for c in \"ab\":\n  print(c)" "a\nb\n";
    check_out "nested unpack in for"
      "for a, b in [(1, 2), (3, 4)]:\n  print(a + b)" "3\n7\n";
    check_out "mutating list during building"
      "xs = []\nfor i in range(3):\n  xs.append(xs[:])\nprint(xs)"
      "[[], [[]], [[], [[]]]]\n";
    check_raises "unpack arity mismatch"
      "a, b = [1, 2, 3]" "ValueError";
    check_raises "iterating a number" "for x in 5:\n  pass" "TypeError" ]

let builtins_corner =
  [ check_out "str of containers"
      "print(str([1, 2]), str({\"a\": None}))" "[1, 2] {'a': None}\n";
    check_out "int conversions"
      "print(int(\"42\"), int(3.9), int(True))" "42 3 1\n";
    check_out "bool conversions"
      "print(bool([]), bool(\"x\"), bool(0.0))" "False True False\n";
    check_out "sorted leaves original alone"
      "xs = [3, 1]\nys = sorted(xs)\nprint(xs, ys)" "[3, 1] [1, 3]\n";
    check_out "min max on strings" "print(min(\"cab\"), max(\"cab\"))" "a c\n";
    check_out "sum of floats" "print(sum([0.5, 0.25]))" "0.75\n";
    check_out "len of empty containers"
      "print(len(\"\"), len([]), len({}), len(()))" "0 0 0 0\n";
    check_out "range negative step" "print(range(5, 0, -2))" "[5, 3, 1]\n";
    check_out "hasattr on module"
      "import json\nprint(hasattr(json, \"dumps\"), hasattr(json, \"nope\"))"
      "True False\n";
    check_out "print sep and end kwargs"
      "print(1, 2, sep=\"-\", end=\"!\")\nprint(3)" "1-2!3\n";
    check_raises "int of garbage" "int(\"xyz\")" "ValueError";
    check_raises "min of empty" "min([])" "ValueError";
    check_raises "range zero step" "range(1, 2, 0)" "ValueError" ]

let int_conversion_fix =
  (* int(True) prints as True because bools are ints in display? no:
     int(True) must be 1 *)
  [ Alcotest.test_case "int(True) is 1" `Quick (fun () ->
        Alcotest.(check string) "one" "1\n" (run "print(int(True))")) ]



let chained_comparisons =
  [ check_out "ascending chain" "print(1 < 2 < 3, 1 < 3 < 2)" "True False\n";
    check_out "mixed ops" "print(1 <= 1 < 2, 3 > 2 > 2)" "True False\n";
    check_out "equality chain" "print(1 == 1 == 1, 1 == 1 == 2)" "True False\n";
    check_out "chain in condition"
      "x = 5\nif 0 < x < 10:\n  print(\"in range\")" "in range\n";
    check_out "explicit parens keep old meaning"
      "print((1 < 2) == True)" "True\n";
    Alcotest.test_case "chain round-trips" `Quick (fun () ->
        let p1 = Parser.parse ~file:"<t>" "b = 0 < x < 10\n" in
        let p2 =
          Parser.parse ~file:"<t>" (Pretty.program_to_string p1)
        in
        Alcotest.(check bool) "equal" true (Ast.program_equal p1 p2)) ]

(* --- accounting snapshots ------------------------------------------------ *)

(* Crafted programs covering every statement and expression form, each
   pinned to a literal snapshot of its outcome, stdout and the exact
   virtual-clock / byte-ledger / step accounting (vtime printed with %.17g).
   Committed experiment CSVs are built from these charges, so any drift in
   when the evaluator ticks or what it allocates shows up here first. *)
let snapshot_of ?(vfs = Vfs.create ()) prog =
  let t = Interp.create ~max_steps:200_000 vfs in
  let out =
    match Interp.exec_main t prog with
    | _ -> "OK:" ^ Interp.stdout_contents t
    | exception Value.Py_error e ->
      Printf.sprintf "ERR:%s:%s:%s" e.Value.exc_class e.Value.exc_msg
        (Interp.stdout_contents t)
    | exception Interp.Timeout _ -> "TIMEOUT:" ^ Interp.stdout_contents t
    | exception Interp.Return_exc v ->
      Printf.sprintf "MODULE_RETURN:%s:%s" (Value.to_repr v)
        (Interp.stdout_contents t)
    | exception Interp.Break_exc -> "MODULE_BREAK:" ^ Interp.stdout_contents t
    | exception Interp.Continue_exc ->
      "MODULE_CONTINUE:" ^ Interp.stdout_contents t
  in
  Printf.sprintf "%s | vtime=%.17g heap=%d steps=%d" out t.Interp.vtime_ms
    t.Interp.heap_bytes t.Interp.steps

let accounting =
  List.map
    (fun (name, source, expected) ->
       Alcotest.test_case name `Quick (fun () ->
           Alcotest.(check string) name expected
             (snapshot_of (Parser.parse ~file:"<acct>" source))))
    [ ( "fib (recursion)",
        "def fib(n):\n\
        \  if n < 2:\n\
        \    return n\n\
        \  return fib(n - 1) + fib(n - 2)\n\
         print(fib(12))\n",
        "OK:144\n | vtime=4.6527999999996368 heap=3146928 steps=5117" );
      ( "arith, comparisons, short-circuit",
        "x = 7\n\
         y = x * 3 - 1 / 2\n\
         print(y, x // 2, x % 3, x ** 2)\n\
         print(x > 2 and y < 100 or False)\n\
         print(None or [1] and 'tail')\n",
        "OK:20.5 3 1 49\nTrue\ntail\n | vtime=0.037999999999999992 heap=3145792 steps=43" );
      ( "augassign on a local",
        "def bump(n):\n\
        \  acc = 0\n\
        \  i = 0\n\
        \  while i < n:\n\
        \    acc += i * 2\n\
        \    i += 1\n\
        \  return acc\n\
         print(bump(25))\n",
        "OK:600\n | vtime=0.19599999999999929 heap=3146928 steps=242" );
      ( "for with break/continue",
        "total = 0\n\
         for i in range(20):\n\
        \  if i % 2 == 0:\n\
        \    continue\n\
        \  if i > 13:\n\
        \    break\n\
        \  total += i\n\
         print(total)\n",
        "OK:49\n | vtime=0.13119999999999968 heap=3145944 steps=161" );
      ( "nested loops with break",
        "hits = []\n\
         for i in range(4):\n\
        \  for j in range(4):\n\
        \    if j > i:\n\
        \      break\n\
        \    hits.append(i * 10 + j)\n\
         print(hits)\n",
        "OK:[0, 10, 11, 20, 21, 22, 30, 31, 32, 33]\n | vtime=0.15599999999999961 heap=3146304 steps=171" );
      ( "comprehensions leak their variable",
        "xs = [i * i for i in range(6) if i != 3]\n\
         d = {k: k + 1 for k in range(4) if k > 0}\n\
         print(xs, d, i, k)\n",
        "OK:[0, 1, 4, 16, 25] {1: 2, 2: 3, 3: 4} 5 3\n | vtime=0.062800000000000064 heap=3146296 steps=74" );
      ( "tuple unpack, nested",
        "a, b = 1, 2\n\
         pairs = [(1, (2, 3)), (4, (5, 6))]\n\
         for x, (y, z) in pairs:\n\
        \  print(x + y + z)\n\
         print(a, b)\n",
        "OK:6\n15\n1 2\n | vtime=0.034799999999999984 heap=3146080 steps=39" );
      ( "lambda, defaults, kwargs",
        "def greet(name, punct='!', times=1):\n\
        \  return (name + punct) * times\n\
         square = lambda v: v * v\n\
         print(greet('hi'), greet('yo', times=2, punct='?'), square(9))\n",
        "OK:hi! yo?yo? 81\n | vtime=0.032799999999999982 heap=3148339 steps=35" );
      ( "class, methods, instances",
        "class Counter:\n\
        \  def __init__(self, start):\n\
        \    self.n = start\n\
        \  def bump(self, by=1):\n\
        \    self.n += by\n\
        \    return self.n\n\
         c = Counter(10)\n\
         c.bump()\n\
         print(c.bump(5))\n",
        "OK:16\n | vtime=0.033599999999999984 heap=3149784 steps=36" );
      ( "try/except inside a function",
        "def safe_div(a, b):\n\
        \  try:\n\
        \    return a / b\n\
        \  except ZeroDivisionError as e:\n\
        \    return -1\n\
         print(safe_div(8, 2), safe_div(1, 0))\n",
        "OK:4.0 -1\n | vtime=0.023599999999999993 heap=3146928 steps=25" );
      ( "loop containing try",
        "def scan(xs):\n\
        \  out = 0\n\
        \  for x in xs:\n\
        \    try:\n\
        \      out += 10 / x\n\
        \    except ZeroDivisionError:\n\
        \      out += 100\n\
        \  return out\n\
         print(scan([1, 0, 2, 0, 5]))\n",
        "OK:217.0\n | vtime=0.040000000000000001 heap=3147024 steps=47" );
      ( "global declaration",
        "count = 0\n\
         def incr():\n\
        \  global count\n\
        \  count = count + 1\n\
         incr()\n\
         incr()\n\
         print(count)\n",
        "OK:2\n | vtime=0.021999999999999995 heap=3146928 steps=23" );
      ( "slices and subscripts",
        "xs = [0, 1, 2, 3, 4, 5]\n\
         s = 'hello world'\n\
         print(xs[1:4], xs[:3], xs[2:], s[0:5], s[-5:])\n\
         xs[2] = 99\n\
         print(xs[2], xs[-1])\n",
        "OK:[1, 2, 3] [0, 1, 2] [2, 3, 4, 5] hello world\n99 5\n | vtime=0.038399999999999997 heap=3146188 steps=45" );
      ( "dict literals, methods, membership",
        "d = {'a': 1, 'b': 2}\n\
         d['c'] = 3\n\
         print('b' in d, 'z' in d, d.get('a'), d.keys(), len(d))\n",
        "OK:True False 1 ['a', 'b', 'c'] 3\n | vtime=0.02799999999999999 heap=3146016 steps=29" );
      ( "augassign through attr and subscript",
        "class Box:\n\
        \  def __init__(self):\n\
        \    self.v = 5\n\
         b = Box()\n\
         b.v += 3\n\
         xs = [1, 2, 3]\n\
         xs[1] += 10\n\
         print(b.v, xs)\n",
        "OK:8 [1, 12, 3]\n | vtime=0.025599999999999991 heap=3148664 steps=29" );
      ( "raise and assert",
        "def must_pos(x):\n\
        \  assert x > 0, 'not positive'\n\
        \  if x > 100:\n\
        \    raise ValueError('too big')\n\
        \  return x\n\
         print(must_pos(5))\n\
         try:\n\
        \  must_pos(-1)\n\
         except AssertionError as e:\n\
        \  print('caught', e.message)\n",
        "OK:5\ncaught not positive\n | vtime=0.03199999999999998 heap=3146928 steps=34" );
      ( "uncaught error keeps its accounting",
        "print('before')\n\
         xs = [1]\n\
         print(xs[5])\n",
        "ERR:IndexError:list index out of range:before\n | vtime=0.011600000000000003 heap=3145792 steps=13" );
      ( "del then NameError",
        "x = 1\n\
         del x\n\
         print(x)\n",
        "ERR:NameError:name 'x' is not defined: | vtime=0.0056000000000000008 heap=3145728 steps=7" );
      ( "module-level return escapes exec_main",
        "print('a')\n\
         return 5\n",
        "MODULE_RETURN:5:a\n | vtime=0.006000000000000001 heap=3145728 steps=6" );
      ( "string methods and formatting",
        "s = 'The Quick Fox'\n\
         print(s.upper(), s.lower(), s.split(' '), '-'.join(['a', 'b']))\n\
         print('{} and {}'.format(1, 'two'))\n",
        "OK:THE QUICK FOX the quick fox ['The', 'Quick', 'Fox'] a-b\n1 and two\n | vtime=0.031599999999999982 heap=3146114 steps=29" );
      ( "for/continue and augassign inside a function",
        "def f(xs):\n\
        \  acc = 0\n\
        \  for x in xs:\n\
        \    if x == 0:\n\
        \      continue\n\
        \    acc += x\n\
        \  return acc\n\
         print(f([1, 0, 2, 0, 3]))\n",
        "OK:6\n | vtime=0.039199999999999999 heap=3147024 steps=46" );
      ( "boolops return an operand",
        "def f(a, b):\n\
        \  return a and not b or a + b\n\
         print(f(1, 0), f(0, 5), f(2, 3))\n",
        "OK:True 5 5\n | vtime=0.035199999999999988 heap=3146928 steps=38" );
      ( "comprehension inside a function",
        "def f(n):\n\
        \  return [i * i for i in range(n) if i != 2]\n\
         print(f(5))\n",
        "OK:[0, 1, 9, 16]\n | vtime=0.034799999999999984 heap=3147112 steps=39" );
      ( "module-level try, defaults and a builtin import",
        "import simrt\n\
         LIMIT = 3\n\
         def helper(x, scale=2):\n\
        \  return x * scale\n\
         try:\n\
        \  v = helper(LIMIT)\n\
         except Exception as e:\n\
        \  v = 0\n\
         print(v)\n",
        "OK:6\n | vtime=0.016800000000000006 heap=3146928 steps=18" ) ]

(* Imports add the loader fee, the library's simrt charges and a package
   chain bound through its parent. *)
let import_accounting =
  Alcotest.test_case "imports, packages and simrt charges" `Quick (fun () ->
      let vfs = Vfs.create () in
      Vfs.add_file vfs "mylib.py"
        "import simrt\n\
         simrt.cpu_ms(2.0)\n\
         VERSION = 3\n\
         def helper(x):\n\
        \  return x * VERSION\n\
         class Tool:\n\
        \  def run(self, v):\n\
        \    return helper(v) + 1\n";
      Vfs.add_file vfs "pkg/__init__.py" "from . import sub\n";
      Vfs.add_file vfs "pkg/sub.py" "LEAF = 'leaf'\n";
      Alcotest.(check string) "imports"
        "OK:6 16 leaf\n | vtime=2.1355999999999953 heap=3153984 steps=48"
        (snapshot_of ~vfs
           (Parser.parse ~file:"<acct>"
              "import mylib\n\
               import pkg\n\
               t = mylib.Tool()\n\
               print(mylib.helper(2), t.run(5), pkg.sub.LEAF)\n")))

let suite =
  [ ("semantics.scoping", scoping);
    ("semantics.classes", class_machinery);
    ("semantics.exceptions", exceptions);
    ("semantics.iteration", iteration);
    ("semantics.builtins", builtins_corner);
    ("semantics.int_conversion", int_conversion_fix);
    ("semantics.chained_comparisons", chained_comparisons);
    ("semantics.accounting", accounting @ [ import_accounting ]) ]
