// Fixture: conditional expression statements drop both branches' Status.
struct Status {
  static Status OK();
  bool ok() const;
};

Status SaveThing(int x);
Status LoadThing(int x);

void Run(bool c, int n) {
  c ? SaveThing(1) : LoadThing(2);  // violation: both branches dropped
  if (c) n > 0 ? SaveThing(3) : Status::OK();  // violation: braceless if
}
