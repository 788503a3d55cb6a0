// Fixture: Status values chosen by a conditional expression and then used
// — no diagnostics.
struct Status {
  static Status OK();
  static Status NotFound(const char* what);
  bool ok() const;
};

Status SaveThing(int x);
void Consume(const Status& s);

Status Run(bool c) {
  const Status s = c ? Status::NotFound("x") : Status::OK();  // initialised
  Status t = Status::OK();
  t = c ? SaveThing(1) : Status::OK();       // assigned
  Consume(c ? SaveThing(2) : SaveThing(3));  // passed on
  Status u{c ? SaveThing(4) : Status::OK()};  // braced initialiser
  if (!(c ? SaveThing(5) : u).ok()) return s;  // used in condition
  return c ? SaveThing(6) : t;               // returned
}
